//! # oscache-workloads
//!
//! Generators for the four system-intensive workloads of Xia & Torrellas
//! (HPCA 1996, §2.3): [`Workload::Trfd4`], [`Workload::TrfdMake`],
//! [`Workload::Arc2dFsck`], and [`Workload::Shell`].
//!
//! Each generator composes the `oscache-kernel` services (page faults,
//! fork/exec, scheduling, gang barriers, cross-processor interrupts, file
//! I/O) with user-program models into a deterministic 4-CPU
//! [`oscache_trace::ChunkedTrace`]. Activity rates are calibrated so the
//! trace's structure matches the paper's measurements: execution-time split
//! (Table 1), operating-system miss breakdown (Table 2), block-operation
//! characteristics and size mix (Tables 3–4), and coherence-miss
//! breakdown (Table 5).
//!
//! # Example
//!
//! ```
//! use oscache_workloads::{build_chunked, BuildOptions, Workload};
//!
//! let opts = BuildOptions { scale: 0.05, seed: 1, ..Default::default() };
//! let trace = build_chunked(Workload::Shell, opts);
//! assert_eq!(trace.n_cpus(), 4);
//! assert!(trace.total_events() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
mod user;

pub use builder::{
    build_chunked, build_chunked_shared, build_chunked_spilled, build_with_mix, BuildOptions, Mix,
    TraceBuildKey, Workload, N_CPUS,
};
pub use user::{UserProc, UserProgram, UserPrograms};
