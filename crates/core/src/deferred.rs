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

#[derive(Clone, Copy, Debug)]
struct CopyOp {
    cpu: usize,
    /// Index of the `BlockOpEnd` event.
    end_idx: usize,
    src: Addr,
    dst: Addr,
    len: u32,
}

fn overlaps(op: &CopyOp, a: Addr) -> bool {
    (a.0 >= op.src.0 && a.0 < op.src.0 + op.len) || (a.0 >= op.dst.0 && a.0 < op.dst.0 + op.len)
}

/// Finds every sub-page copy and decides which are read-only: neither
/// block is written later in the issuing CPU's stream, nor written at all
/// by any other CPU (a conservative global check, since cross-CPU order is
/// not fixed). Walks every stream twice — block-op discovery, then the
/// global write check — through decoding chunk iterators, so the walk
/// never materializes a stream.
fn analyze_ops(trace: &ChunkedTrace) -> (DeferredCounts, Vec<CopyOp>) {
    let mut counts = DeferredCounts::default();
    let mut small_ops: Vec<CopyOp> = Vec::new();
    for (cpu, stream) in trace.streams.iter().enumerate() {
        // A small copy pending its matching `BlockOpEnd`. Block ops never
        // nest (validation rejects that), so one slot suffices.
        let mut pending: Option<(Addr, Addr, u32)> = None;
        for (idx, e) in stream.iter().enumerate() {
            match e {
                Event::BlockOpBegin { op } if op.kind == oscache_trace::BlockKind::Copy => {
                    counts.block_copies += 1;
                    if op.len < PAGE_SIZE {
                        counts.small_copies += 1;
                        pending = Some((op.src, op.dst, op.len));
                    }
                }
                Event::BlockOpEnd => {
                    if let Some((src, dst, len)) = pending.take() {
                        small_ops.push(CopyOp {
                            cpu,
                            end_idx: idx,
                            src,
                            dst,
                            len,
                        });
                    }
                }
                _ => {}
            }
        }
    }
    // Decide read-only status.
    let mut readonly = vec![true; small_ops.len()];
    for (cpu, stream) in trace.streams.iter().enumerate() {
        let mut in_op_of: Option<usize> = None;
        for (idx, e) in stream.iter().enumerate() {
            match e {
                Event::BlockOpBegin { .. } => {
                    in_op_of = small_ops.iter().position(|op| {
                        op.cpu == cpu && op.end_idx > idx && op.end_idx - idx < 4096
                    });
                }
                Event::BlockOpEnd => in_op_of = None,
                Event::Write { addr, .. } => {
                    for (k, op) in small_ops.iter().enumerate() {
                        if !readonly[k] || !overlaps(op, addr) {
                            continue;
                        }
                        // Writes inside the op itself don't count.
                        if op.cpu == cpu && (in_op_of == Some(k) || idx <= op.end_idx) {
                            continue;
                        }
                        readonly[k] = false;
                    }
                }
                _ => {}
            }
        }
    }
    counts.readonly_small_copies = readonly.iter().filter(|&&r| r).count() as u64;
    let ro_ops = small_ops
        .into_iter()
        .zip(readonly)
        .filter_map(|(op, ro)| ro.then_some(op))
        .collect();
    (counts, ro_ops)
}

/// Computes the Table 4 counts for a trace.
pub fn analyze(trace: &ChunkedTrace) -> DeferredCounts {
    analyze_ops(trace).0
}

/// Applies deferred copying: read-only small copies are removed entirely
/// (the copy never happens) and later reads of their destination blocks
/// are remapped to the source (the VMP-style remap); a short bookkeeping
/// overhead replaces each removed operation. The rewrite decodes one
/// chunk at a time and re-encodes into fresh chunks.
pub fn apply_deferred_copy(trace: &ChunkedTrace) -> ChunkedTrace {
    let (_, ro_ops) = analyze_ops(trace);
    let mut out = ChunkedTrace::new(trace.n_cpus(), trace.meta.clone());
    for (cpu, stream) in trace.streams.iter().enumerate() {
        let ops: Vec<&CopyOp> = ro_ops.iter().filter(|o| o.cpu == cpu).collect();
        let mut b = ChunkedStreamBuilder::new();
        let mut skip_until: Option<usize> = None;
        for (idx, e) in stream.iter().enumerate() {
            if let Some(end) = skip_until {
                if idx < end {
                    continue;
                }
                if idx == end {
                    skip_until = None;
                    continue; // skip the BlockOpEnd itself
                }
            }
            if let Event::BlockOpBegin { op } = e {
                // Several identical copies may exist; match the one whose
                // bracket closes soonest after this begin.
                if let Some(ro) = ops
                    .iter()
                    .filter(|o| {
                        o.src == op.src && o.dst == op.dst && o.len == op.len && o.end_idx > idx
                    })
                    .min_by_key(|o| o.end_idx)
                {
                    // Remap bookkeeping: a few kernel-stack-class writes.
                    for k in 0..4u32 {
                        b.push(Event::Write {
                            addr: Addr(0x0104_0000 + cpu as u32 * 4096 + 512 + k * 4),
                            class: oscache_trace::DataClass::KernelStack,
                        });
                    }
                    skip_until = Some(ro.end_idx);
                    continue;
                }
            }
            // Remap reads of removed destinations to the source.
            if let Event::Read { addr, class } = e {
                if let Some(ro) = ops
                    .iter()
                    .find(|o| idx > o.end_idx && addr.0 >= o.dst.0 && addr.0 < o.dst.0 + o.len)
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
    use oscache_trace::{DataClass, Mode, StreamBuilder, Trace, TraceMeta};

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
