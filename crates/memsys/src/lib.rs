//! # oscache-memsys
//!
//! Cycle-level model of the bus-based shared-memory multiprocessor that
//! Xia & Torrellas simulate (HPCA 1996, §2.4), plus the hardware support
//! their optimizations require:
//!
//! * per-CPU cache hierarchies: 16-KB L1I and 32-KB write-through L1D
//!   (16-byte lines), 256-KB write-back lockup-free unified L2 (32-byte
//!   lines), all direct-mapped ([`Cache`]);
//! * a 4-deep word write buffer between L1 and L2 and an 8-deep line write
//!   buffer between L2 and bus, with reads bypassing writes
//!   ([`WriteBuffer`]);
//! * an 8-byte, 40-MHz split-transaction bus with full contention
//!   ([`Bus`]);
//! * the Illinois (MESI) invalidation protocol under release consistency,
//!   with optional per-page Firefly updates for the §5.2 selective-update
//!   optimization;
//! * software prefetching with lockup-free overlap ([`MshrSet`],
//!   [`PrefetchBuffer`]);
//! * the §4.2 block-operation schemes (`Blk_Pref`, `Blk_Bypass`,
//!   `Blk_ByPref`, and the DMA-like `Blk_Dma` engine), selected by
//!   [`BlockOpScheme`].
//!
//! [`Machine::run`] replays an [`oscache_trace::ChunkedTrace`] and returns
//! [`SimStats`], from which every table and figure of the paper is derived.
//! Malformed traces and violated machine invariants surface as typed
//! [`SimError`]s rather than panics; [`AuditLevel`] selects how much
//! invariant checking runs alongside the replay, and the [`faults`] module
//! perturbs traces to exercise exactly those rejection paths.
//!
//! # Example
//!
//! ```
//! use oscache_memsys::{AuditLevel, Machine, MachineConfig};
//! use oscache_trace::{Addr, ChunkedTrace, DataClass, Mode, StreamBuilder, TraceMeta};
//!
//! let mut meta = TraceMeta::default();
//! let site = meta.code.add_site("demo", false);
//! let bb = meta.code.add_block(Addr(0x1000), 4, site);
//! let mut trace = ChunkedTrace::new(4, meta);
//! let mut b = StreamBuilder::new();
//! b.set_mode(Mode::Os);
//! b.exec(bb);
//! b.read(Addr(0x0100_0000), DataClass::RunQueue);
//! trace.streams[0] = b.finish();
//!
//! let cfg = MachineConfig::base().with_audit(AuditLevel::Strict);
//! let stats = Machine::new(cfg, &trace).unwrap().run().unwrap();
//! assert_eq!(stats.total().l1d_read_misses.os, 1); // cold miss
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod audit;
mod blockop;
mod bus;
mod cache;
mod config;
mod cores;
mod error;
pub mod faults;
mod history;
mod machine;
mod prefetch;
mod spec;
mod stats;
mod wbuf;

pub use bus::{Bus, BusOp, BusStats};
pub use cache::{Cache, Evicted, LineState};
pub use config::{
    AuditLevel, BlockOpScheme, CacheGeom, CancelToken, MachineConfig, PageSet, Timing,
};
pub use cores::{available_cores, CoreGauge, Lease, ThreadLease};
pub use error::{InvariantKind, SimError, SimErrorKind};
pub use history::{CacheLevel, Departure, DepartureTable};
pub use machine::{Machine, OverlapStats, CANCEL_POLL_STRIDE};
pub use prefetch::{MshrSet, PrefetchBuffer};
pub use stats::{CpuStats, MissKind, ModeSplit, SimStats};
pub use wbuf::WriteBuffer;
