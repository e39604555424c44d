//! Typed simulation errors.
//!
//! Everything the machine model can reject at runtime — a trace that fails
//! structural validation, a synchronization event the replay semantics
//! cannot honour, a deadlocked schedule, or a coherence invariant the
//! auditor caught — surfaces as a [`SimError`] carrying the simulated cycle,
//! the CPU, and (when one is involved) the cache line, so a failure points
//! at the exact simulated moment instead of panicking deep inside replay.

use crate::LineState;
use oscache_trace::{LineAddr, TraceError};
use std::fmt;

/// A failure detected while building or running a [`crate::Machine`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SimError {
    /// Simulated cycle (local clock of `cpu`, or 0 before replay starts).
    pub cycle: u64,
    /// CPU the failure is attributed to, when one is.
    pub cpu: Option<usize>,
    /// Cache line involved, when one is.
    pub line: Option<LineAddr>,
    /// What went wrong.
    pub kind: SimErrorKind,
}

impl SimError {
    /// True when the error is a static trace-validation failure rather
    /// than a runtime simulation failure (callers report these with
    /// different exit codes).
    pub fn is_trace_error(&self) -> bool {
        matches!(self.kind, SimErrorKind::Trace(_))
    }

    /// True when the replay stopped because its
    /// [`CancelToken`](crate::CancelToken) was tripped rather than because
    /// anything was wrong with the trace or the machine. Supervisors map
    /// this to their deadline/timeout taxonomy instead of retrying.
    pub fn is_cancelled(&self) -> bool {
        matches!(self.kind, SimErrorKind::Cancelled { .. })
    }

    /// True when the cell could not be run within its memory budget. Not a
    /// property of the trace or configuration either: the same cell re-run
    /// with a larger (or no) budget completes normally, so callers report
    /// this as *overloaded* rather than as a cell failure.
    pub fn is_overloaded(&self) -> bool {
        matches!(self.kind, SimErrorKind::MemBudgetExceeded { .. })
    }

    /// Builds the overloaded error (no simulated state is involved; the
    /// rejection happens while materializing the cell's trace).
    pub fn mem_budget_exceeded(resident_mb: u64, budget_mb: u64) -> Self {
        SimError {
            cycle: 0,
            cpu: None,
            line: None,
            kind: SimErrorKind::MemBudgetExceeded {
                resident_mb,
                budget_mb,
            },
        }
    }
}

/// The category of a [`SimError`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimErrorKind {
    /// The trace failed static validation before replay.
    Trace(TraceError),
    /// An event that may not appear inside a DMA-executed block-operation
    /// bracket was found between `BlockOpBegin` and `BlockOpEnd`.
    MalformedBlockOp {
        /// Debug rendering of the offending event (or `"end of stream"`).
        event: String,
    },
    /// An `Exec` event named a basic block the code layout does not define.
    UnknownBlock {
        /// The unresolved block index.
        block: u32,
    },
    /// A lock was released that was never acquired.
    LockReleaseUnknown {
        /// The lock.
        lock: u16,
    },
    /// A lock was released by a CPU that does not hold it.
    LockReleaseByNonHolder {
        /// The lock.
        lock: u16,
        /// Its actual holder at the release (None = free).
        holder: Option<usize>,
    },
    /// Replay finished with at least one CPU still blocked on a lock or a
    /// barrier no other CPU will ever satisfy.
    Deadlock {
        /// Debug rendering of the stuck CPU's scheduling status.
        waiting: String,
        /// Event index the CPU stopped at.
        cursor: usize,
        /// Total events in that CPU's stream.
        stream_len: usize,
    },
    /// The runtime auditor caught a violated machine invariant.
    Invariant(InvariantKind),
    /// The replay's [`CancelToken`](crate::CancelToken) was tripped and the
    /// machine stopped cooperatively before finishing. Not a property of
    /// the trace or configuration: the same cell re-run without the
    /// cancellation completes normally.
    Cancelled {
        /// Global event index the replay stopped at (the machine's step
        /// counter when the poll observed the tripped token). Deterministic
        /// for a given trace, configuration, and poll schedule — the
        /// specialized and generic loops report the same index.
        step: u64,
    },
    /// A hot-spot prefetch plan positions an entry past the end of the
    /// stream it is merged into (or names a stream the trace lacks): the
    /// plan was built for a different trace.
    PlanOutOfRange {
        /// The entry's insertion position (an input-event index).
        before: u32,
        /// Events in the stream it was merged into.
        stream_len: usize,
    },
    /// The cell's traces could not be held (or spilled) within the
    /// configured memory budget: the spill store degraded (out of disk
    /// space or persistent write failure) while resident bytes already
    /// exceed the budget. Supervisors map this to their *overloaded*
    /// taxonomy — the cell is retryable once pressure clears.
    MemBudgetExceeded {
        /// Governed resident bytes at rejection, in MiB.
        resident_mb: u64,
        /// The configured budget, in MiB.
        budget_mb: u64,
    },
}

/// A machine invariant the runtime auditor found violated
/// (see [`crate::AuditLevel`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum InvariantKind {
    /// Two caches both hold a line in an owned (Exclusive/Modified) state.
    MultipleOwners {
        /// First owner found.
        first: usize,
        /// Second owner found.
        second: usize,
    },
    /// One cache owns a line (single-writer) while another still holds a
    /// valid copy.
    OwnedLineShared {
        /// The owning CPU.
        owner: usize,
        /// Its state.
        owner_state: LineState,
        /// A CPU with a surviving copy.
        other: usize,
    },
    /// An L1 line is resident without its covering L2 line (and without a
    /// pending write-buffer entry excusing it).
    InclusionViolated {
        /// Which L1 array: `"l1d"` or `"l1i"`.
        cache: &'static str,
    },
    /// A write buffer holds more entries than its depth permits.
    WriteBufferOverfull {
        /// Which buffer: `"wb1"` or `"wb2"`.
        buffer: &'static str,
        /// Observed occupancy.
        len: usize,
        /// Configured depth.
        depth: usize,
    },
    /// The word write buffer's entries drain out of FIFO order.
    WriteBufferOrder {
        /// Which buffer.
        buffer: &'static str,
    },
    /// A CPU's local clock moved backwards across an event.
    ClockWentBackwards {
        /// Clock before the event.
        before: u64,
        /// Clock after the event.
        after: u64,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cycle {}", self.cycle)?;
        if let Some(cpu) = self.cpu {
            write!(f, " cpu {cpu}")?;
        }
        if let Some(line) = self.line {
            write!(f, " line {line}")?;
        }
        write!(f, ": {}", self.kind)
    }
}

impl fmt::Display for SimErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimErrorKind::Trace(e) => write!(f, "invalid trace: {e}"),
            SimErrorKind::MalformedBlockOp { event } => {
                write!(f, "unexpected event inside block operation: {event}")
            }
            SimErrorKind::UnknownBlock { block } => {
                write!(f, "unknown basic block {block}")
            }
            SimErrorKind::LockReleaseUnknown { lock } => {
                write!(f, "release of unknown lock {lock}")
            }
            SimErrorKind::LockReleaseByNonHolder { lock, holder } => match holder {
                Some(h) => write!(f, "lock {lock} released while held by cpu {h}"),
                None => write!(f, "lock {lock} released while free"),
            },
            SimErrorKind::Deadlock {
                waiting,
                cursor,
                stream_len,
            } => write!(
                f,
                "deadlock: stuck in {waiting} at event {cursor}/{stream_len}"
            ),
            SimErrorKind::Invariant(k) => write!(f, "invariant violated: {k}"),
            SimErrorKind::Cancelled { step } => {
                write!(f, "replay cancelled cooperatively at event {step}")
            }
            SimErrorKind::PlanOutOfRange { before, stream_len } => write!(
                f,
                "prefetch plan inserts before event {before} of a {stream_len}-event stream"
            ),
            SimErrorKind::MemBudgetExceeded {
                resident_mb,
                budget_mb,
            } => write!(
                f,
                "memory budget exceeded: {resident_mb} MiB resident with spill \
                 degraded (budget {budget_mb} MiB)"
            ),
        }
    }
}

impl fmt::Display for InvariantKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InvariantKind::MultipleOwners { first, second } => {
                write!(f, "cpus {first} and {second} both own the line")
            }
            InvariantKind::OwnedLineShared {
                owner,
                owner_state,
                other,
            } => write!(
                f,
                "cpu {owner} holds the line {owner_state:?} while cpu {other} \
                 has a copy"
            ),
            InvariantKind::InclusionViolated { cache } => {
                write!(f, "{cache} line resident without its L2 line")
            }
            InvariantKind::WriteBufferOverfull { buffer, len, depth } => {
                write!(f, "{buffer} holds {len} entries (depth {depth})")
            }
            InvariantKind::WriteBufferOrder { buffer } => {
                write!(f, "{buffer} entries complete out of FIFO order")
            }
            InvariantKind::ClockWentBackwards { before, after } => {
                write!(f, "clock moved backwards ({before} -> {after})")
            }
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match &self.kind {
            SimErrorKind::Trace(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TraceError> for SimError {
    /// Wraps a static trace-validation failure (no simulated state yet).
    fn from(e: TraceError) -> Self {
        SimError {
            cycle: 0,
            cpu: None,
            line: None,
            kind: SimErrorKind::Trace(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_location() {
        let e = SimError {
            cycle: 420,
            cpu: Some(2),
            line: Some(LineAddr(0x40)),
            kind: SimErrorKind::Invariant(InvariantKind::MultipleOwners {
                first: 0,
                second: 2,
            }),
        };
        let s = e.to_string();
        assert!(s.contains("cycle 420"), "{s}");
        assert!(s.contains("cpu 2"), "{s}");
        assert!(s.contains("both own"), "{s}");
    }

    #[test]
    fn trace_errors_are_classified() {
        let e = SimError::from(TraceError::CpuCountMismatch {
            expected: 4,
            actual: 2,
        });
        assert!(e.is_trace_error());
        assert!(std::error::Error::source(&e).is_some());
        let e = SimError {
            cycle: 1,
            cpu: Some(0),
            line: None,
            kind: SimErrorKind::Deadlock {
                waiting: "OnLock(3, 17)".into(),
                cursor: 5,
                stream_len: 9,
            },
        };
        assert!(!e.is_trace_error());
        assert!(e.to_string().contains("deadlock"));
    }
}
