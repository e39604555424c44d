//! Static trace validation.
//!
//! A trace crosses a trust boundary every time it is read back from disk or
//! perturbed by the fault-injection harness, so before replay the simulator
//! checks every structural invariant the generators promise: block ids
//! resolve against the code layout, lock and block-operation brackets are
//! well-nested per CPU, barrier arrivals agree on their participant count,
//! kernel variables sit inside the declared kernel data ranges, and block
//! operations stay inside the address space. `ChunkedTrace::validate`
//! reports the first violation as a typed [`TraceError`]; `read_trace` and
//! `Machine::new` both call it so malformed input is rejected with a precise
//! error instead of a panic deep inside replay. The rules run while a stream
//! is encoded ([`StreamProver`]) and the outcome is kept as per-stream
//! [`StreamFacts`], so validation reads no event back unless the facts
//! cannot prove the trace valid; then `ChunkedTrace::validate_by_scan` runs
//! the same rules over every event.

use crate::{BarrierId, BlockId, Event, LockId, TraceMeta};
use std::collections::HashMap;
use std::fmt;

/// A structural violation found in a trace.
///
/// `cpu` is the stream index and `index` the offending event's position in
/// that stream, so errors point at the exact event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceError {
    /// The trace has a different number of streams than the consumer
    /// expects (e.g. the machine configuration's CPU count).
    CpuCountMismatch {
        /// Expected number of CPUs.
        expected: usize,
        /// Streams actually present.
        actual: usize,
    },
    /// An `Exec` event names a basic block the code layout does not define.
    UnknownBlock {
        /// Stream index.
        cpu: usize,
        /// Event position.
        index: usize,
        /// The unresolved block id.
        block: BlockId,
    },
    /// A lock was acquired while already held by the same CPU.
    LockAlreadyHeld {
        /// Stream index.
        cpu: usize,
        /// Event position.
        index: usize,
        /// The lock.
        lock: LockId,
    },
    /// A lock was released by a CPU that does not hold it.
    LockNotHeld {
        /// Stream index.
        cpu: usize,
        /// Event position.
        index: usize,
        /// The lock.
        lock: LockId,
    },
    /// A stream ended with a lock still held.
    LockHeldAtEnd {
        /// Stream index.
        cpu: usize,
        /// The leaked lock.
        lock: LockId,
    },
    /// A barrier arrival declared a participant count of zero or more than
    /// the number of CPUs.
    BarrierParticipants {
        /// Stream index.
        cpu: usize,
        /// Event position.
        index: usize,
        /// Declared participant count.
        participants: u8,
        /// CPUs in the trace.
        n_cpus: usize,
    },
    /// Two arrivals at the same barrier declared different participant
    /// counts.
    InconsistentBarrier {
        /// Stream index of the second, disagreeing arrival.
        cpu: usize,
        /// Event position of that arrival.
        index: usize,
        /// The barrier.
        barrier: BarrierId,
    },
    /// A block operation began while another was still open (they do not
    /// nest).
    NestedBlockOp {
        /// Stream index.
        cpu: usize,
        /// Event position.
        index: usize,
    },
    /// A `BlockOpEnd` with no open block operation.
    UnmatchedBlockOpEnd {
        /// Stream index.
        cpu: usize,
        /// Event position.
        index: usize,
    },
    /// A stream ended inside an open block operation.
    UnterminatedBlockOp {
        /// Stream index.
        cpu: usize,
    },
    /// A block operation of zero length.
    EmptyBlockOp {
        /// Stream index.
        cpu: usize,
        /// Event position.
        index: usize,
    },
    /// A block operation whose source or destination range overflows the
    /// 32-bit address space.
    BlockOpOutOfRange {
        /// Stream index.
        cpu: usize,
        /// Event position.
        index: usize,
    },
    /// An event that may not appear inside a block-operation bracket
    /// (synchronization, mode switches, idle time, nested brackets).
    ForeignEventInBlockOp {
        /// Stream index.
        cpu: usize,
        /// Event position.
        index: usize,
        /// Short description of the offending event kind.
        kind: &'static str,
    },
    /// A declared kernel variable lies (partly) outside every declared
    /// kernel data range.
    VarOutsideKernelData {
        /// The variable's symbol name.
        name: String,
    },
    /// A declared kernel variable's extent overflows the address space.
    VarOverflow {
        /// The variable's symbol name.
        name: String,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::CpuCountMismatch { expected, actual } => {
                write!(f, "trace has {actual} streams, expected {expected}")
            }
            TraceError::UnknownBlock { cpu, index, block } => {
                write!(f, "cpu {cpu} event {index}: unknown basic block {block:?}")
            }
            TraceError::LockAlreadyHeld { cpu, index, lock } => {
                write!(f, "cpu {cpu} event {index}: {lock:?} acquired while held")
            }
            TraceError::LockNotHeld { cpu, index, lock } => {
                write!(f, "cpu {cpu} event {index}: {lock:?} released but not held")
            }
            TraceError::LockHeldAtEnd { cpu, lock } => {
                write!(f, "cpu {cpu}: stream ends with {lock:?} still held")
            }
            TraceError::BarrierParticipants {
                cpu,
                index,
                participants,
                n_cpus,
            } => write!(
                f,
                "cpu {cpu} event {index}: barrier declares {participants} \
                 participants on a {n_cpus}-cpu trace"
            ),
            TraceError::InconsistentBarrier {
                cpu,
                index,
                barrier,
            } => write!(
                f,
                "cpu {cpu} event {index}: {barrier:?} arrivals disagree on \
                 participant count"
            ),
            TraceError::NestedBlockOp { cpu, index } => {
                write!(f, "cpu {cpu} event {index}: nested block operation")
            }
            TraceError::UnmatchedBlockOpEnd { cpu, index } => {
                write!(f, "cpu {cpu} event {index}: block-op end without begin")
            }
            TraceError::UnterminatedBlockOp { cpu } => {
                write!(f, "cpu {cpu}: stream ends inside a block operation")
            }
            TraceError::EmptyBlockOp { cpu, index } => {
                write!(f, "cpu {cpu} event {index}: zero-length block operation")
            }
            TraceError::BlockOpOutOfRange { cpu, index } => {
                write!(
                    f,
                    "cpu {cpu} event {index}: block operation overflows the \
                     address space"
                )
            }
            TraceError::ForeignEventInBlockOp { cpu, index, kind } => {
                write!(
                    f,
                    "cpu {cpu} event {index}: {kind} inside a block operation"
                )
            }
            TraceError::VarOutsideKernelData { name } => {
                write!(f, "kernel variable `{name}` outside declared kernel ranges")
            }
            TraceError::VarOverflow { name } => {
                write!(f, "kernel variable `{name}` overflows the address space")
            }
        }
    }
}

impl std::error::Error for TraceError {}

/// The shared per-event validation engine behind
/// `ChunkedTrace::validate_by_scan` and the encoder's [`StreamProver`]:
/// both drive the same `step`/`finish_stream` state machine, so what the
/// encoder proves and what the scan finds come from one copy of the rules.
#[derive(Debug)]
pub(crate) struct TraceValidator {
    n_cpus: usize,
    n_blocks: usize,
    barrier_sizes: HashMap<BarrierId, u8>,
}

/// Per-stream validator state (lock set and block-op bracket).
#[derive(Debug)]
pub(crate) struct StreamState {
    held: Vec<LockId>,
    in_block_op: bool,
}

impl TraceValidator {
    /// Runs the metadata invariants and prepares a validator for a trace
    /// with `n_cpus` streams.
    pub(crate) fn new(meta: &TraceMeta, n_cpus: usize) -> Result<Self, TraceError> {
        check_meta(meta)?;
        Ok(TraceValidator {
            n_cpus,
            n_blocks: meta.code.block_count(),
            barrier_sizes: HashMap::new(),
        })
    }

    /// Fresh per-stream state; feed it to [`TraceValidator::step`] for each
    /// event in order, then [`TraceValidator::finish_stream`].
    pub(crate) fn stream_state(&self) -> StreamState {
        StreamState {
            held: Vec::new(),
            in_block_op: false,
        }
    }

    /// Checks one event at position `index` of stream `cpu`.
    #[inline]
    pub(crate) fn step(
        &mut self,
        st: &mut StreamState,
        cpu: usize,
        index: usize,
        ev: &Event,
    ) -> Result<(), TraceError> {
        // The bulk of every trace, legal inside or outside a block
        // operation: answered inline, without the bracket or lock state.
        match *ev {
            Event::Read { .. } | Event::Write { .. } | Event::Prefetch { .. } => Ok(()),
            Event::Exec { block } if block.index() >= self.n_blocks => {
                Err(TraceError::UnknownBlock { cpu, index, block })
            }
            Event::Exec { .. } => Ok(()),
            _ => self.step_control(st, cpu, index, ev),
        }
    }

    /// [`TraceValidator::step`] for the synchronization, bracket, mode and
    /// idle events.
    fn step_control(
        &mut self,
        st: &mut StreamState,
        cpu: usize,
        index: usize,
        ev: &Event,
    ) -> Result<(), TraceError> {
        if st.in_block_op {
            let foreign = match ev {
                Event::Exec { .. }
                | Event::Read { .. }
                | Event::Write { .. }
                | Event::Prefetch { .. }
                | Event::BlockOpEnd => None,
                Event::BlockOpBegin { .. } => return Err(TraceError::NestedBlockOp { cpu, index }),
                Event::LockAcquire { .. } => Some("lock acquire"),
                Event::LockRelease { .. } => Some("lock release"),
                Event::Barrier { .. } => Some("barrier"),
                Event::SetMode { .. } => Some("mode switch"),
                Event::Idle { .. } => Some("idle"),
            };
            if let Some(kind) = foreign {
                return Err(TraceError::ForeignEventInBlockOp { cpu, index, kind });
            }
        }
        match *ev {
            Event::LockAcquire { lock, .. } => {
                if st.held.contains(&lock) {
                    return Err(TraceError::LockAlreadyHeld { cpu, index, lock });
                }
                st.held.push(lock);
            }
            Event::LockRelease { lock, .. } => match st.held.iter().position(|&l| l == lock) {
                Some(pos) => {
                    st.held.remove(pos);
                }
                None => return Err(TraceError::LockNotHeld { cpu, index, lock }),
            },
            Event::Barrier {
                barrier,
                participants,
                ..
            } => {
                if participants == 0 || participants as usize > self.n_cpus {
                    return Err(TraceError::BarrierParticipants {
                        cpu,
                        index,
                        participants,
                        n_cpus: self.n_cpus,
                    });
                }
                match self.barrier_sizes.get(&barrier) {
                    Some(&p) if p != participants => {
                        return Err(TraceError::InconsistentBarrier {
                            cpu,
                            index,
                            barrier,
                        })
                    }
                    Some(_) => {}
                    None => {
                        self.barrier_sizes.insert(barrier, participants);
                    }
                }
            }
            Event::BlockOpBegin { op } => {
                if op.len == 0 {
                    return Err(TraceError::EmptyBlockOp { cpu, index });
                }
                if op.src.0.checked_add(op.len).is_none() || op.dst.0.checked_add(op.len).is_none()
                {
                    return Err(TraceError::BlockOpOutOfRange { cpu, index });
                }
                st.in_block_op = true;
            }
            Event::BlockOpEnd => {
                if !st.in_block_op {
                    return Err(TraceError::UnmatchedBlockOpEnd { cpu, index });
                }
                st.in_block_op = false;
            }
            _ => {}
        }
        Ok(())
    }

    /// End-of-stream invariants: no open block operation, no held locks.
    pub(crate) fn finish_stream(&mut self, st: StreamState, cpu: usize) -> Result<(), TraceError> {
        if st.in_block_op {
            return Err(TraceError::UnterminatedBlockOp { cpu });
        }
        if let Some(&lock) = st.held.first() {
            return Err(TraceError::LockHeldAtEnd { cpu, lock });
        }
        Ok(())
    }
}

/// What encoding proved about one stream on its own. A chunk builder feeds
/// every event it encodes through a [`StreamProver`] and keeps the result
/// beside the chunks, so `ChunkedTrace::validate` can decide validity from
/// these few facts instead of reading the stream back (DESIGN.md §16).
///
/// The facts are a function of the pushed event sequence alone: equal
/// streams carry equal facts, and moving chunk bytes to disk changes
/// neither.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct StreamFacts {
    /// No stream-local violation, end-of-stream checks included.
    pub(crate) clean: bool,
    /// The largest `Exec` block index plus one (0 with no `Exec`).
    pub(crate) block_end: usize,
    /// Each barrier the stream arrives at, with its participant count,
    /// sorted by barrier id.
    pub(crate) barriers: Vec<(BarrierId, u8)>,
}

impl Default for StreamFacts {
    /// The facts of the empty stream.
    fn default() -> Self {
        StreamFacts {
            clean: true,
            block_end: 0,
            barriers: Vec::new(),
        }
    }
}

/// Runs [`TraceValidator::step`] over one stream as it is encoded, in a
/// per-stream mode with no limit on block ids or CPU count: those two
/// bounds, and barrier agreement across streams, depend on the whole trace
/// and are checked against the recorded [`StreamFacts`] instead.
#[derive(Debug)]
pub(crate) struct StreamProver {
    v: TraceValidator,
    st: StreamState,
    clean: bool,
    block_end: usize,
}

impl StreamProver {
    pub(crate) fn new() -> Self {
        let v = TraceValidator {
            n_cpus: usize::MAX,
            n_blocks: usize::MAX,
            barrier_sizes: HashMap::new(),
        };
        StreamProver {
            st: v.stream_state(),
            v,
            clean: true,
            block_end: 0,
        }
    }

    /// Checks the stream's `index`-th event. After the first violation
    /// the stream is known dirty and later events only track `block_end`.
    #[inline]
    pub(crate) fn push(&mut self, index: usize, ev: &Event) {
        if let Event::Exec { block } = *ev {
            self.block_end = self.block_end.max(block.index() + 1);
        }
        if self.clean && self.v.step(&mut self.st, 0, index, ev).is_err() {
            self.clean = false;
        }
    }

    /// Runs the end-of-stream checks and returns what the stream proved.
    pub(crate) fn finish(self) -> StreamFacts {
        let StreamProver {
            mut v,
            st,
            clean,
            block_end,
        } = self;
        let clean = clean && v.finish_stream(st, 0).is_ok();
        let mut barriers: Vec<(BarrierId, u8)> = v.barrier_sizes.into_iter().collect();
        barriers.sort_unstable();
        StreamFacts {
            clean,
            block_end,
            barriers,
        }
    }
}

/// True when per-stream `facts` prove that a trace with this `meta` and
/// one stream per fact passes the full scan: every stream is clean, every
/// `Exec` resolves against the code layout, and every barrier declares the
/// same participant count, between 1 and the CPU count, on every stream.
/// `false` means only "not proven" — the scan then finds the exact error.
pub(crate) fn facts_prove_valid<'a, I>(meta: &TraceMeta, facts: I) -> bool
where
    I: ExactSizeIterator<Item = &'a StreamFacts>,
{
    let n_cpus = facts.len();
    let n_blocks = meta.code.block_count();
    let mut sizes: HashMap<BarrierId, u8> = HashMap::new();
    for f in facts {
        if !f.clean || f.block_end > n_blocks {
            return false;
        }
        for &(barrier, participants) in &f.barriers {
            if participants as usize > n_cpus
                || *sizes.entry(barrier).or_insert(participants) != participants
            {
                return false;
            }
        }
    }
    true
}

/// Metadata invariants: declared kernel variables sit inside the declared
/// kernel data ranges (when any are declared) and nothing overflows the
/// 32-bit address space.
pub(crate) fn check_meta(meta: &TraceMeta) -> Result<(), TraceError> {
    for v in &meta.vars {
        let end = match v.addr.0.checked_add(v.size) {
            Some(e) => e,
            None => {
                return Err(TraceError::VarOverflow {
                    name: v.name.clone(),
                })
            }
        };
        if !meta.kernel_data.is_empty() {
            let covered = meta
                .kernel_data
                .iter()
                .any(|&(base, len)| v.addr.0 >= base.0 && end <= base.0.saturating_add(len));
            if !covered {
                return Err(TraceError::VarOutsideKernelData {
                    name: v.name.clone(),
                });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        Addr, ChunkedStream, ChunkedTrace, DataClass, KernelVar, Mode, StreamBuilder, TraceMeta,
        VarRole, CHUNK_EVENTS,
    };

    fn stream(events: Vec<Event>) -> ChunkedStream {
        ChunkedStream::from_events(events, CHUNK_EVENTS)
    }

    fn one_cpu_trace(events: Vec<Event>) -> ChunkedTrace {
        let mut t = ChunkedTrace::new(1, TraceMeta::default());
        t.streams[0] = stream(events);
        t
    }

    #[test]
    fn valid_trace_passes() {
        let mut meta = TraceMeta::default();
        let site = meta.code.add_site("p", false);
        let bb = meta.code.add_block(Addr(0x100), 3, site);
        let mut b = StreamBuilder::new();
        b.set_mode(Mode::Os);
        b.exec(bb);
        b.lock_acquire(LockId(1), Addr(0x40));
        b.read(Addr(0x0100_0000), DataClass::KernelOther);
        b.lock_release(LockId(1), Addr(0x40));
        b.begin_block_zero(Addr(0x2000), 64, DataClass::PageFrame);
        b.write(Addr(0x2000), DataClass::PageFrame);
        b.end_block_op();
        let mut t = ChunkedTrace::new(1, meta);
        t.streams[0] = b.finish();
        assert_eq!(t.validate(), Ok(()));
        assert_eq!(t.validate_for_cpus(1), Ok(()));
    }

    #[test]
    fn cpu_count_mismatch_detected() {
        let t = ChunkedTrace::new(2, TraceMeta::default());
        assert_eq!(
            t.validate_for_cpus(4),
            Err(TraceError::CpuCountMismatch {
                expected: 4,
                actual: 2
            })
        );
    }

    #[test]
    fn unknown_block_detected() {
        let t = one_cpu_trace(vec![Event::Exec { block: BlockId(7) }]);
        assert!(matches!(
            t.validate(),
            Err(TraceError::UnknownBlock {
                cpu: 0,
                index: 0,
                block: BlockId(7)
            })
        ));
    }

    #[test]
    fn lock_protocol_violations_detected() {
        let acquire = Event::LockAcquire {
            lock: LockId(3),
            addr: Addr(0x40),
        };
        let release = Event::LockRelease {
            lock: LockId(3),
            addr: Addr(0x40),
        };
        let t = one_cpu_trace(vec![acquire, acquire]);
        assert!(matches!(
            t.validate(),
            Err(TraceError::LockAlreadyHeld { .. })
        ));
        let t = one_cpu_trace(vec![release]);
        assert!(matches!(t.validate(), Err(TraceError::LockNotHeld { .. })));
        let t = one_cpu_trace(vec![acquire]);
        assert!(matches!(
            t.validate(),
            Err(TraceError::LockHeldAtEnd { .. })
        ));
    }

    #[test]
    fn barrier_violations_detected() {
        let arrive = |participants| Event::Barrier {
            barrier: BarrierId(0),
            addr: Addr(0x80),
            participants,
        };
        let mut t = ChunkedTrace::new(2, TraceMeta::default());
        t.streams[0] = stream(vec![arrive(3)]);
        assert!(matches!(
            t.validate(),
            Err(TraceError::BarrierParticipants { .. })
        ));
        t.streams[0] = stream(vec![arrive(2)]);
        t.streams[1] = stream(vec![arrive(1)]);
        assert!(matches!(
            t.validate(),
            Err(TraceError::InconsistentBarrier { cpu: 1, .. })
        ));
    }

    #[test]
    fn block_op_bracket_violations_detected() {
        let begin = Event::BlockOpBegin {
            op: crate::BlockOp {
                src: Addr(0x1000),
                dst: Addr(0x2000),
                len: 64,
                kind: crate::BlockKind::Copy,
                src_class: DataClass::PageFrame,
                dst_class: DataClass::PageFrame,
            },
        };
        let t = one_cpu_trace(vec![begin, begin]);
        assert!(matches!(
            t.validate(),
            Err(TraceError::NestedBlockOp { .. })
        ));
        let t = one_cpu_trace(vec![Event::BlockOpEnd]);
        assert!(matches!(
            t.validate(),
            Err(TraceError::UnmatchedBlockOpEnd { .. })
        ));
        let t = one_cpu_trace(vec![begin]);
        assert!(matches!(
            t.validate(),
            Err(TraceError::UnterminatedBlockOp { cpu: 0 })
        ));
        let t = one_cpu_trace(vec![begin, Event::Idle { cycles: 5 }, Event::BlockOpEnd]);
        assert!(matches!(
            t.validate(),
            Err(TraceError::ForeignEventInBlockOp { kind: "idle", .. })
        ));
    }

    #[test]
    fn out_of_range_block_op_detected() {
        let begin = Event::BlockOpBegin {
            op: crate::BlockOp {
                src: Addr(0x1000),
                dst: Addr(0xFFFF_FF00),
                len: 0x1000,
                kind: crate::BlockKind::Copy,
                src_class: DataClass::PageFrame,
                dst_class: DataClass::PageFrame,
            },
        };
        let t = one_cpu_trace(vec![begin, Event::BlockOpEnd]);
        assert!(matches!(
            t.validate(),
            Err(TraceError::BlockOpOutOfRange { .. })
        ));
        let zero = Event::BlockOpBegin {
            op: crate::BlockOp {
                src: Addr(0x1000),
                dst: Addr(0x1000),
                len: 0,
                kind: crate::BlockKind::Zero,
                src_class: DataClass::PageFrame,
                dst_class: DataClass::PageFrame,
            },
        };
        let t = one_cpu_trace(vec![zero, Event::BlockOpEnd]);
        assert!(matches!(t.validate(), Err(TraceError::EmptyBlockOp { .. })));
    }

    #[test]
    fn vars_outside_kernel_ranges_detected() {
        let var = KernelVar {
            name: "stray".into(),
            addr: Addr(0x9000_0000),
            size: 8,
            class: DataClass::KernelOther,
            role: VarRole::Plain,
            false_shared_group: None,
        };
        let meta = TraceMeta {
            workload: "t".into(),
            code: Default::default(),
            vars: vec![var],
            kernel_data: vec![(Addr(0x0100_0000), 0x1000)],
        };
        let t = ChunkedTrace::new(1, meta);
        assert!(matches!(
            t.validate(),
            Err(TraceError::VarOutsideKernelData { .. })
        ));
    }

    #[test]
    fn errors_display_cleanly() {
        let e = TraceError::UnknownBlock {
            cpu: 2,
            index: 17,
            block: BlockId(9),
        };
        let s = e.to_string();
        assert!(s.contains("cpu 2"), "{s}");
        assert!(s.contains("17"), "{s}");
    }
}
