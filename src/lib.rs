//! # oscache
//!
//! A reproduction of Chun Xia and Josep Torrellas, *"Improving the Data
//! Cache Performance of Multiprocessor Operating Systems"* (HPCA 1996), as
//! a Rust library.
//!
//! The paper asks how to eliminate most of a multiprocessor OS's data-cache
//! misses while keeping off-the-shelf processors, and answers with a ladder
//! of optimizations: DMA-like block operations, data privatization and
//! relocation, a selective Firefly update protocol on a 384-byte core of
//! shared variables, and hot-spot data prefetching — together eliminating
//! or hiding ~75% of OS data misses and speeding the OS up by ~19%.
//!
//! This crate is a facade over the workspace:
//!
//! * [`trace`] — the reference/event substrate;
//! * [`memsys`] — the cycle-level model of the paper's 4-CPU bus-based
//!   machine (caches, write buffers, split-transaction bus, Illinois MESI
//!   + Firefly update coherence, prefetching, the `Blk_Dma` engine);
//! * [`kernel`] — the synthetic multiprocessor-UNIX substrate (layout,
//!   code, services) standing in for the unobtainable Alliant FX/8 traces;
//! * [`workloads`] — the paper's four workloads (`TRFD_4`, `TRFD+Make`,
//!   `ARC2D+Fsck`, `Shell`);
//! * [`core`] — system configurations, automated trace analysis, the
//!   software-optimization passes, the simulation driver, and the
//!   reproduction of every table and figure.
//!
//! # Quick start
//!
//! ```
//! use oscache::core::{run_system, System};
//! use oscache::workloads::{build_chunked, BuildOptions, Workload};
//!
//! // Build a small TRFD_4 trace and compare Base with the full ladder.
//! let opts = BuildOptions { scale: 0.05, seed: 1, ..Default::default() };
//! let trace = build_chunked(Workload::Trfd4, opts);
//! let base = run_system(&trace, System::Base);
//! let best = run_system(&trace, System::BCPref);
//! let misses = |r: &oscache::core::RunResult| r.stats.total().os_read_misses();
//! assert!(misses(&best) < misses(&base));
//! ```
//!
//! The `repro` binary (in `oscache-bench`) regenerates every table and
//! figure: `cargo run --release -p oscache-bench --bin repro`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use oscache_core as core;
pub use oscache_kernel as kernel;
pub use oscache_memsys as memsys;
pub use oscache_trace as trace;
pub use oscache_workloads as workloads;
