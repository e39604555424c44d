//! # oscache-core
//!
//! The paper's contribution layer: system configurations
//! ([`System`]/[`SystemSpec`]), automated trace analysis ([`analysis`]),
//! software-optimization passes ([`transform`], [`deferred`]), the
//! simulation driver ([`run_system`]/[`run_spec`]), and the derived
//! metrics behind every table and figure ([`metrics`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
mod config;
pub mod deferred;
pub mod experiments;
mod json;
pub mod metrics;
pub mod paperref;
mod report;
pub mod runner;
mod scorecard;
pub mod service;
mod sim;
pub mod supervise;
pub mod transform;

pub use config::{Geometry, System, SystemSpec, UpdatePolicy};
pub use experiments::{render_experiment, CellTiming, Headline, Repro, SupervisedWarmStats};
pub use metrics::{
    BlockOpOverhead, CoherenceBreakdown, MissBreakdown, OsTimeBreakdown, WorkloadMetrics,
};
pub use runner::{
    cell_cost, default_jobs, dispatch_order, run_cells_supervised, Cell, CellFingerprint,
    Experiment, PlannedCell, RequestPlan, SupervisedReport, TraceCache,
};
pub use scorecard::{Check, Scorecard};
pub use sim::{
    analyze_cell, prepare_from_analysis, run_prepared_chunked_timed, run_spec, run_system,
    try_run_spec, try_run_spec_audited, AnalysisPrefix, AnalyzedCell, HotPrefetches, PrepPhases,
    PreparedCell, RunResult,
};
pub use supervise::{
    CellFailure, Escalation, FailureCause, FailureReport, Journal, JournalError, JournalHeader,
    JournalRecord, Overrun, RunPolicy, Salvage,
};
