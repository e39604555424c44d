//! # oscache-trace
//!
//! Reference-trace substrate for the `oscache` workspace: the event
//! vocabulary emitted by the synthetic operating-system workload generators
//! and consumed by the memory-system simulator.
//!
//! The design mirrors the methodology of Xia & Torrellas (HPCA 1996). Their
//! hardware performance monitor captured, for each processor of a 4-CPU
//! Alliant FX/8, every data reference plus *escape* references that encode
//! which basic block is executing, letting them attribute each data access to
//! the kernel data structure it touches. This crate models the same
//! information content:
//!
//! * [`Event`] — one trace entry: an executed basic block, a tagged data
//!   read/write, a synchronization operation, a block-operation bracket, a
//!   mode switch, or idle time.
//! * [`DataClass`] — the data-structure attribution the paper recovered from
//!   its basic-block instrumentation (§2.2).
//! * [`CodeLayout`] — basic blocks with instruction addresses, so the
//!   simulator can replay instruction fetches against the L1 I-cache.
//! * [`ChunkedTrace`] — one [`ChunkedStream`] per CPU, each a run of
//!   compact independently-decodable chunks, plus the [`TraceMeta`] (code
//!   layout, kernel variable map, kernel data ranges) the software
//!   optimization passes need. It is the one trace type: the generators
//!   build it, every pass and the simulator consume it, and
//!   [`write_trace`]/[`read_trace`] dump and load it.
//!
//! # Example
//!
//! ```
//! use oscache_trace::{Addr, DataClass, Mode, StreamBuilder};
//!
//! let mut b = StreamBuilder::new();
//! b.set_mode(Mode::Os);
//! b.read(Addr(0x0100_0000), DataClass::RunQueue);
//! b.write(Addr(0x0100_0040), DataClass::InfreqCounter);
//! let stream = b.finish();
//! assert_eq!(stream.len(), 3); // mode switch + read + write
//! assert!(stream.iter().nth(1).unwrap().is_read());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod addr;
pub mod chunk;
mod class;
mod code;
mod event;
mod hotspot;
pub mod io;
mod meta;
pub mod rng;
pub mod spill;
mod stream;
mod validate;

pub use addr::{Addr, CpuId, LineAddr, PAGE_SIZE, WORD_SIZE};
pub use chunk::{ChunkedStream, ChunkedStreamBuilder, ChunkedTrace, CHUNK_EVENTS};
pub use class::{CoherenceCategory, DataClass};
pub use code::{BasicBlock, BlockId, CodeLayout, SiteId, SiteInfo};
pub use event::{BarrierId, BlockKind, BlockOp, Event, LockId, Mode};
pub use hotspot::{HotspotPlan, MergedStream, PlanEntry, LOOP_AHEAD};
pub use io::{read_trace, write_trace, ReadTraceError};
pub use meta::{KernelVar, TraceMeta, VarRole};
pub use spill::{
    IoFaultClass, IoFaultPlan, MemBudget, SpillError, SpillErrorKind, SpillStore, SpillTarget,
    StoreIdentity,
};
pub use stream::StreamBuilder;
pub use validate::TraceError;

/// A stable 64-bit FNV-1a digest of `bytes` (journal record identity,
/// spill fault plans), unlike `DefaultHasher`'s fixed across releases.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Locks `m`, recovering the guard if a previous holder panicked: every
/// structure locked this way is write-once or append-only, so one
/// panicked cell cannot wedge every other cell of a run.
pub fn lock_tolerant<T>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The most CPUs a trace may have: the paper's machines have 4 and the
/// scalability extension sweeps up to 8. [`read_trace`] rejects a dump
/// declaring more, and the kernel layout and the sharing profile are
/// sized by it.
pub const MAX_CPUS: usize = 8;
