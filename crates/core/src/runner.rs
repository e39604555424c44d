//! Parallel experiment runner, shared trace cache, and the one cell
//! dispatcher.
//!
//! The reproduction's experiment grid — every (workload, system, geometry)
//! cell behind the paper's tables and figures — is embarrassingly parallel
//! *across* cells even though each simulation must stay single-threaded
//! for reproducibility (DESIGN.md §5). This module supplies the pieces
//! that exploit that:
//!
//! * [`TraceCache`]: builds each calibrated workload trace exactly once
//!   per [`TraceBuildKey`] `(workload, scale, seed, n_cpus)` and shares it
//!   immutably via [`Arc`]; the geometry-independent analysis of each
//!   working trace is computed once per `(trace build, AnalysisPrefix)`,
//!   and a cell whose [`CellFingerprint`] is already in flight waits for
//!   that one result instead of simulating again.
//! * The one cell dispatcher (`Sched`): longest-first within a request,
//!   round-robin across clients, one supervised per-cell body. The
//!   one-shot [`run_cells_supervised`] admits its plan as one request and
//!   runs scoped workers on it; the resident [`crate::service`] keeps a
//!   pool on it. Results come back by cell index, never by completion.
//!
//! Determinism argument (DESIGN.md §10): every [`RunResult`] is produced
//! by `sim::run_prepared_chunked_timed`, a deterministic single-threaded
//! `Machine` run over an immutable trace; workers share nothing mutable but
//! the cache, whose entries are write-once values of pure functions of
//! their keys. Therefore the outcome of a cell cannot depend on the number of workers
//! or on scheduling, and `--jobs N` output is bitwise-identical to the
//! serial path — which the determinism tests in `tests/runner.rs` and the
//! golden files under `tests/golden/` pin down.

// Failure values carry the whole Cell (key, spec, geometry) so reports can
// name exactly what failed; they only exist on the cold path.
#![allow(clippy::result_large_err)]

use crate::config::{Geometry, System, SystemSpec, UpdatePolicy};
use crate::deferred::{self, DeferralSummary};
use crate::experiments::{figure6_sweep, figure7_sweep};
use crate::sim::{self, AnalysisPrefix, AnalyzedCell, PrepPhases, PreparedCell, RunResult};
use crate::supervise::{
    fnv1a, lock_tolerant, CellFailure, FailureCause, Journal, JournalRecord, Overrun, RunPolicy,
};
use oscache_memsys::{AuditLevel, CancelToken, CoreGauge, SimError, SimErrorKind, SimStats};
use oscache_trace::{ChunkedTrace, IoFaultPlan, MemBudget, SpillStore, StoreIdentity};
use oscache_workloads::{
    build_chunked, build_chunked_shared, build_chunked_spilled, BuildOptions, TraceBuildKey,
    Workload,
};
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError};
use std::time::{Duration, Instant};

/// The default worker count: every hardware thread the OS grants us (the
/// same count that sizes the decode-ahead core gauge).
pub fn default_jobs() -> usize {
    oscache_memsys::available_cores()
}

/// Identity of a fully-prepared simulation input: base trace plus every
/// configuration bit that can change the software passes' output.
///
/// Two equal fingerprints always denote bitwise-identical prepared traces;
/// two distinct `(spec, geometry, audit)` combinations on the same base
/// trace always compare unequal, so a cache collision between different
/// systems of the ladder is impossible by construction (the cache is keyed
/// by the full value, not by [`CellFingerprint::digest`]).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct CellFingerprint {
    /// The base trace build.
    pub base: TraceBuildKey,
    /// The system configuration (all software passes).
    pub spec: SystemSpec,
    /// Cache geometry (coloring and the prefetch profiling run see it).
    pub geometry: Geometry,
    /// Audit level (the profiling run inherits it).
    pub audit: AuditLevel,
}

impl CellFingerprint {
    /// A stable 64-bit digest of the fingerprint (for logs and JSON; the
    /// cache itself never compares digests).
    pub fn digest(&self) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.hash(&mut h);
        h.finish()
    }

    /// A *build-stable* digest: FNV-1a over the fingerprint's canonical
    /// (Debug) rendering. This is what the run journal keys records by —
    /// unlike [`CellFingerprint::digest`], whose `DefaultHasher` keys the
    /// standard library may change between releases, this value must let a
    /// journal written by one binary be resumed by the next.
    pub fn stable_digest(&self) -> u64 {
        fnv1a(format!("{self:?}").as_bytes())
    }
}

/// One schedulable experiment cell: a (workload, system spec, geometry)
/// point plus the tag that names it in experiment-level caches.
#[derive(Clone, Debug)]
pub struct Cell {
    /// Workload whose trace the cell simulates.
    pub workload: Workload,
    /// Fully-specified system.
    pub spec: SystemSpec,
    /// Cache geometry.
    pub geometry: Geometry,
    /// Unique tag for the spec+geometry combination (the paper label for
    /// ladder systems, e.g. `"Base"` or `"BCPref@16KB"`).
    pub tag: String,
}

impl Cell {
    /// A ladder system at the default geometry.
    pub fn system(workload: Workload, system: System) -> Cell {
        Cell {
            workload,
            spec: system.spec(),
            geometry: Geometry::default(),
            tag: system.label().to_string(),
        }
    }

    /// The cell's key in [`crate::Repro`]'s run cache.
    pub fn key(&self) -> String {
        run_key(self.workload, &self.tag, self.geometry)
    }

    /// The cell's prepared-trace fingerprint under `opts`.
    pub fn fingerprint(&self, opts: BuildOptions) -> CellFingerprint {
        CellFingerprint {
            base: opts.key(self.workload),
            spec: self.spec,
            geometry: self.geometry,
            audit: AuditLevel::Off,
        }
    }
}

/// The canonical run-cache key of a (workload, tag, geometry) cell.
pub fn run_key(workload: Workload, tag: &str, geometry: Geometry) -> String {
    format!("{}/{}/{:?}", workload.name(), tag, geometry)
}

/// One cell of a [`RequestPlan`], with its fingerprint, build-stable
/// digest, and run key computed exactly once.
#[derive(Clone, Debug)]
pub struct PlannedCell {
    /// The cell to run.
    pub cell: Cell,
    /// Its prepared-trace fingerprint.
    pub fingerprint: CellFingerprint,
    /// [`CellFingerprint::stable_digest`], the journal/dedup key.
    pub digest: u64,
    /// [`Cell::key`], the run-cache key.
    pub key: String,
}

/// The execution plan for a set of cells or experiments: every cell paired
/// with its fingerprint and digest, deduplicated at enumeration time.
///
/// This is the *single* place cell enumeration + fingerprinting happens —
/// the one-shot CLI path ([`crate::Repro::warm_supervised`]), the direct
/// fan-out ([`run_cells_supervised`]), and the resident service
/// ([`crate::service`]) all consume plans, so a request submitted over the
/// wire runs exactly the cells the CLI would.
#[derive(Clone, Debug, Default)]
pub struct RequestPlan {
    /// The planned cells, in deterministic enumeration order.
    pub cells: Vec<PlannedCell>,
}

impl RequestPlan {
    /// Plans `cells` as given (no deduplication: slots map 1:1 to input).
    pub fn from_cells(cells: &[Cell], opts: BuildOptions) -> RequestPlan {
        RequestPlan {
            cells: cells
                .iter()
                .map(|c| {
                    let fingerprint = c.fingerprint(opts);
                    PlannedCell {
                        fingerprint,
                        digest: fingerprint.stable_digest(),
                        key: c.key(),
                        cell: c.clone(),
                    }
                })
                .collect(),
        }
    }

    /// Every cell the given experiments need, deduplicated by run key
    /// (experiments share ladder cells heavily), in first-appearance
    /// order. `skip` drops cells whose key is already satisfied (e.g.
    /// results already in a [`crate::Repro`]'s run cache).
    pub fn for_experiments(
        experiments: &[Experiment],
        opts: BuildOptions,
        mut skip: impl FnMut(&str) -> bool,
    ) -> RequestPlan {
        let mut seen: HashSet<String> = HashSet::new();
        let mut cells = Vec::new();
        for e in experiments {
            for cell in e.cells() {
                let key = cell.key();
                if skip(&key) || !seen.insert(key) {
                    continue;
                }
                cells.push(cell);
            }
        }
        RequestPlan::from_cells(&cells, opts)
    }

    /// Number of planned cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True when nothing needs to run.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Fingerprints appearing more than once in this plan (e.g. a sweep
    /// point coinciding with the default geometry): these cells share one
    /// simulation result. The dispatcher shares every result, so it needs
    /// no such list; this reports the plan's duplicates to observers.
    pub fn recurring(&self) -> HashSet<CellFingerprint> {
        let mut counts: HashMap<CellFingerprint, usize> = HashMap::new();
        for pc in &self.cells {
            *counts.entry(pc.fingerprint).or_insert(0) += 1;
        }
        counts
            .into_iter()
            .filter(|&(_, n)| n > 1)
            .map(|(fp, _)| fp)
            .collect()
    }
}

/// Spill-under-pressure configuration shared by every governed build in
/// one [`TraceCache`]: the process-wide memory budget (`--mem-budget-mb`)
/// plus the optional write-path fault-injection plan (`--inject-io`).
pub struct SpillConfig {
    /// The budget every governed trace byte is charged against; sealed
    /// chunks spill to disk once keeping them resident would cross half
    /// of it (the other half is headroom for decode windows and machine
    /// state).
    pub budget: Arc<MemBudget>,
    /// Deterministic disk-fault injection armed for every spill store
    /// created under this configuration.
    pub faults: Option<IoFaultPlan>,
}

/// Timing of one trace build inside the cache.
#[derive(Clone, Debug)]
pub struct BuildTiming {
    /// What was built.
    pub key: TraceBuildKey,
    /// Wall-clock build time in milliseconds.
    pub ms: f64,
    /// Events in the built trace.
    pub events: u64,
}

/// Write-once values keyed by `K`: one std [`OnceLock`] per key, so each
/// value is built once and concurrent requesters block on the single
/// builder. A builder that panics leaves its slot empty and the panic
/// unwinds to its own caller; a blocked requester then runs its own
/// builder (DESIGN.md §13.1).
struct Memo<K, V>(Mutex<HashMap<K, Arc<OnceLock<V>>>>);

impl<K, V> Default for Memo<K, V> {
    fn default() -> Self {
        Memo(Mutex::default())
    }
}

impl<K: Eq + Hash, V: Clone> Memo<K, V> {
    /// The value for `key`, running `build` if no requester has yet.
    fn get_or_build(&self, key: K, build: impl FnOnce() -> V) -> V {
        let slot = lock_tolerant(&self.0).entry(key).or_default().clone();
        slot.get_or_init(build).clone()
    }

    /// Number of keys requested so far.
    fn len(&self) -> usize {
        lock_tolerant(&self.0).len()
    }
}

/// How often a cell waiting on a duplicate's in-flight result polls its
/// own [`CancelToken`].
const RESULT_POLL: Duration = Duration::from_millis(10);

/// What [`TraceCache::claim_result`] hands a cell with a recurring
/// fingerprint.
enum SharedResult<'a> {
    /// Another cell with the same fingerprint already simulated.
    Ready(RunResult),
    /// No cell holds the fingerprint: the caller simulates it and
    /// publishes through [`TraceCache::store_result`]. Dropping the claim
    /// without publishing (failure, panic, cancellation) empties the slot
    /// so a waiter runs the cell itself.
    Claimed(ResultClaim<'a>),
}

/// An in-flight result slot held by the cell simulating it.
struct ResultClaim<'a> {
    cache: &'a TraceCache,
    fp: CellFingerprint,
}

impl Drop for ResultClaim<'_> {
    fn drop(&mut self) {
        let mut results = lock_tolerant(&self.cache.results);
        if matches!(results.get(&self.fp), Some(None)) {
            results.remove(&self.fp);
        }
        self.cache.result_settled.notify_all();
    }
}

/// Builds and shares workload traces across threads.
///
/// Every write-once value is a std `OnceLock` slot: base traces per
/// [`TraceBuildKey`], deferral summaries per base trace, and the
/// geometry-independent analysis of each working trace (sharing profile,
/// privatization/relocation/update planning, and the fused rewrite —
/// [`sim::analyze_cell`]) per `(trace build, AnalysisPrefix)`, shared by
/// every geometry and every spec with the same prefix. Concurrent
/// requests for one key block until the single builder finishes.
///
/// Prepared cells are not memoized: a [`PreparedCell`] is the shared
/// analysis plus a hot-site list, cheap to derive and consumed by one
/// simulation (DESIGN.md §12.3). Cells share the *result* instead: the
/// first cell of a fingerprint claims its in-flight slot and stores its
/// result, and later cells with that fingerprint wait for it, or read
/// it, rather than preparing and simulating again.
///
/// The cache is **panic-tolerant** (DESIGN.md §13.1): a panicking builder
/// or simulation leaves its slot empty for the next requester, and every
/// lock is taken poison-tolerantly — all guarded state is write-once or
/// append-only, so a panicked holder cannot leave it inconsistent.
#[derive(Default)]
pub struct TraceCache {
    base: Memo<TraceBuildKey, Arc<ChunkedTrace>>,
    analyzed: Memo<(TraceBuildKey, AnalysisPrefix), Arc<AnalyzedCell>>,
    deferral: Memo<TraceBuildKey, Arc<DeferralSummary>>,
    /// Results by fingerprint; `None` while a cell runs it.
    results: Mutex<HashMap<CellFingerprint, Option<RunResult>>>,
    /// Signalled whenever a result slot is filled or abandoned.
    result_settled: Condvar,
    builds: Mutex<Vec<BuildTiming>>,
    spill: Mutex<Option<Arc<SpillConfig>>>,
}

impl TraceCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Arms the spill-under-pressure governor: chunked base traces and
    /// analysis rewrites built after this call are charged to a fresh
    /// `budget_mb`-MiB [`MemBudget`], and sealed chunks the budget refuses
    /// to keep resident move to per-CPU segment files. `faults` arms
    /// deterministic write-path fault injection (`--inject-io`).
    pub fn set_spill(&self, budget_mb: u64, faults: Option<IoFaultPlan>) {
        *lock_tolerant(&self.spill) = Some(Arc::new(SpillConfig {
            budget: MemBudget::new_mb(budget_mb),
            faults,
        }));
    }

    /// The active spill configuration — `None` when no budget was armed.
    pub fn spill_config(&self) -> Option<Arc<SpillConfig>> {
        lock_tolerant(&self.spill).clone()
    }

    /// MiB of sealed chunks moved to disk by the governor so far (zero
    /// without an armed budget).
    pub fn spilled_mb(&self) -> f64 {
        self.spill_config()
            .map(|c| c.budget.spilled_bytes() as f64 / (1024.0 * 1024.0))
            .unwrap_or(0.0)
    }

    /// The cached final result for `fp`, if a cell with this fingerprint
    /// already simulated through this cache. Never blocks: a result still
    /// in flight reads as `None`.
    pub fn shared_result(&self, fp: &CellFingerprint) -> Option<RunResult> {
        lock_tolerant(&self.results).get(fp).cloned().flatten()
    }

    /// Stores `result` for reuse by later cells with the same fingerprint
    /// and wakes the cells waiting for it. First writer wins; every writer
    /// computes an identical result (simulation is deterministic in the
    /// fingerprint), so which one lands is unobservable.
    pub fn store_result(&self, fp: CellFingerprint, result: RunResult) {
        lock_tolerant(&self.results)
            .entry(fp)
            .or_default()
            .get_or_insert(result);
        self.result_settled.notify_all();
    }

    /// The result of `fp` if a cell already produced it; else, when
    /// another cell is producing it, waits for that result, polling
    /// `cancel`; else claims the fingerprint for the caller to run.
    fn claim_result(
        &self,
        fp: CellFingerprint,
        cancel: &CancelToken,
    ) -> Result<SharedResult<'_>, SimError> {
        let mut results = lock_tolerant(&self.results);
        loop {
            match results.get(&fp) {
                Some(Some(r)) => return Ok(SharedResult::Ready(r.clone())),
                Some(None) if cancel.is_cancelled() => {
                    return Err(SimError {
                        cycle: 0,
                        cpu: None,
                        line: None,
                        kind: SimErrorKind::Cancelled { step: 0 },
                    })
                }
                Some(None) => {
                    results = self
                        .result_settled
                        .wait_timeout(results, RESULT_POLL)
                        .unwrap_or_else(PoisonError::into_inner)
                        .0;
                }
                None => {
                    results.insert(fp, None);
                    return Ok(SharedResult::Claimed(ResultClaim { cache: self, fp }));
                }
            }
        }
    }

    /// The (shared) chunked base trace of `workload` under `opts`, built
    /// on first use. Generation streams straight into sealed chunks, so no
    /// materialized `Vec<Event>` per CPU ever exists.
    pub fn base_chunked(&self, workload: Workload, opts: BuildOptions) -> Arc<ChunkedTrace> {
        let key = opts.key(workload);
        self.base.get_or_build(key, || {
            let t0 = Instant::now();
            let trace = match self.spill_config() {
                Some(cfg) => build_base_governed(workload, opts, key, &cfg),
                None => build_chunked_shared(workload, opts),
            };
            lock_tolerant(&self.builds).push(BuildTiming {
                key,
                ms: 1e3 * t0.elapsed().as_secs_f64(),
                events: trace.total_events() as u64,
            });
            trace
        })
    }

    /// The prepared (transform-applied) input for `fp`: the shared
    /// analysis of its base trace and spec prefix plus the cell's own
    /// hot-spot selection, with the wall-clock phase breakdown of what
    /// this call computed. `cancel` reaches the profiling replay.
    /// Nothing here is memoized beyond the analysis.
    pub fn prepared_chunked_cancellable(
        &self,
        base: &ChunkedTrace,
        fp: CellFingerprint,
        cancel: &CancelToken,
    ) -> Result<(Arc<PreparedCell>, PrepPhases), SimError> {
        let (analyzed, analyze_ms) = self.analyzed_for(base, fp);
        let (prepared, mut phases) =
            sim::prepare_from_analysis(base, &analyzed, fp.spec, fp.geometry, fp.audit, cancel)?;
        phases.analyze_ms = analyze_ms;
        Ok((Arc::new(prepared), phases))
    }

    /// The shared geometry-independent analysis for `fp`'s base trace and
    /// spec prefix, plus the milliseconds this call spent computing it
    /// (zero on a hit; concurrent requests block on the single analyzer).
    /// Under an armed budget the fresh rewrite is pushed through the spill
    /// governor before it is shared.
    fn analyzed_for(&self, base: &ChunkedTrace, fp: CellFingerprint) -> (Arc<AnalyzedCell>, f64) {
        let key = (fp.base, AnalysisPrefix::of(fp.spec));
        let mut analyze_ms = 0.0;
        let analyzed = self.analyzed.get_or_build(key, || {
            let t0 = Instant::now();
            let deferral = fp
                .spec
                .deferred_copy
                .then(|| self.deferral_of(fp.base, base));
            let mut a = sim::analyze_cell_with(base, fp.spec, deferral.as_deref());
            if let Some(cfg) = self.spill_config() {
                spill_analysis(&mut a, fp, &cfg);
            }
            analyze_ms = 1e3 * t0.elapsed().as_secs_f64();
            Arc::new(a)
        });
        (analyzed, analyze_ms)
    }

    /// The deferral summary of `workload`'s base trace under `opts`
    /// (Table 4's counts and the read-only small copies), computed once
    /// per base trace and shared by the `Base+Deferred` analysis and every
    /// Table 4 render.
    pub(crate) fn deferral(&self, workload: Workload, opts: BuildOptions) -> Arc<DeferralSummary> {
        self.deferral_of(opts.key(workload), &self.base_chunked(workload, opts))
    }

    /// [`TraceCache::deferral`] for the base trace `base` built under `key`.
    fn deferral_of(&self, key: TraceBuildKey, base: &ChunkedTrace) -> Arc<DeferralSummary> {
        self.deferral
            .get_or_build(key, || Arc::new(deferred::summarize(base)))
    }

    /// Timings of every base-trace build so far, in build order.
    pub fn build_timings(&self) -> Vec<BuildTiming> {
        lock_tolerant(&self.builds).clone()
    }

    /// Number of distinct base traces built.
    pub fn base_len(&self) -> usize {
        self.base.len()
    }

    /// Number of distinct geometry-independent analyses cached.
    pub fn analyzed_len(&self) -> usize {
        self.analyzed.len()
    }
}

/// The on-disk identity a spill store binds for `key`'s trace build.
fn identity_of(key: TraceBuildKey) -> StoreIdentity {
    StoreIdentity {
        scale_bits: key.scale_bits,
        seed: key.seed,
        n_cpus: key.n_cpus as u32,
    }
}

/// Builds a chunked base trace under the spill governor: sealed chunks
/// the budget refuses to keep resident stream straight into per-CPU
/// segment files as they are encoded, so peak residency stays O(chunk)
/// regardless of trace scale. A rebuilder is installed so a frame that
/// later fails CRC verification is quarantined and re-derived from the
/// (fully deterministic) generator — one full rebuild per corrupted
/// trace, memoized, then every bad frame salvages from it.
///
/// If the store itself cannot be created (unwritable TMPDIR), the build
/// falls back to the ungoverned in-memory path with the budget flagged
/// degraded, so enforcement still answers *overloaded* rather than the
/// process dying later.
fn build_base_governed(
    workload: Workload,
    opts: BuildOptions,
    key: TraceBuildKey,
    cfg: &SpillConfig,
) -> Arc<ChunkedTrace> {
    let label = format!("base-{}", workload.name());
    let store = match SpillStore::create(&label, identity_of(key), key.n_cpus, cfg.faults) {
        Ok(s) => s,
        Err(e) => {
            cfg.budget.note_degraded();
            eprintln!(
                "warning: class=spill msg={:?}",
                format!("spill store unavailable, staying in memory: {e}")
            );
            let trace = build_chunked_shared(workload, opts);
            cfg.budget.charge_inline(trace.byte_len());
            return trace;
        }
    };
    let rebuilt: OnceLock<ChunkedTrace> = OnceLock::new();
    store.set_rebuilder(Box::new(move |cpu, chunk| {
        let t = rebuilt.get_or_init(|| build_chunked(workload, opts));
        t.streams.get(cpu)?.chunk_bytes(chunk)
    }));
    Arc::new(build_chunked_spilled(workload, opts, &store, &cfg.budget))
}

/// Pushes a freshly-computed analysis rewrite under the budget: resident
/// chunks the governor refuses to keep move to a dedicated store, with a
/// rebuilder that re-derives the rewrite from scratch (generation and
/// every analysis pass are deterministic, so the re-derived bytes match
/// the recorded CRC exactly). Called only on the path that just built
/// `a`, where its trace `Arc` is fresh — `get_mut` cannot fail there.
fn spill_analysis(a: &mut AnalyzedCell, fp: CellFingerprint, cfg: &SpillConfig) {
    let Some(trace) = a.trace.as_mut() else {
        return;
    };
    let Some(t) = Arc::get_mut(trace) else {
        return;
    };
    let label = format!("analysis-{}", fp.base.workload.name());
    let store = match SpillStore::create(&label, identity_of(fp.base), t.n_cpus(), cfg.faults) {
        Ok(s) => s,
        Err(e) => {
            cfg.budget.note_degraded();
            eprintln!(
                "warning: class=spill msg={:?}",
                format!("spill store unavailable, rewrite stays in memory: {e}")
            );
            cfg.budget.charge_inline(t.byte_len());
            return;
        }
    };
    let (key, spec) = (fp.base, fp.spec);
    let rebuilt: OnceLock<Option<Arc<ChunkedTrace>>> = OnceLock::new();
    store.set_rebuilder(Box::new(move |cpu, chunk| {
        let t = rebuilt.get_or_init(|| {
            let base = build_chunked(key.workload, key.options());
            sim::analyze_cell(&base, spec).trace
        });
        t.as_ref()?.streams.get(cpu)?.chunk_bytes(chunk)
    }));
    t.spill_residents(&store, &cfg.budget);
}

/// Fails the current cell as *overloaded* when the governor is both
/// degraded (disk full or persistently failing) and over budget — the
/// one situation where neither keeping bytes resident nor spilling them
/// can satisfy the configured ceiling.
fn check_budget(cache: &TraceCache) -> Result<(), SimError> {
    if let Some(cfg) = cache.spill_config() {
        if cfg.budget.exhausted() {
            return Err(SimError::mem_budget_exceeded(
                cfg.budget.resident_bytes() >> 20,
                cfg.budget.budget_bytes() >> 20,
            ));
        }
    }
    Ok(())
}

/// The outcome of one cell, with its wall-clock cost broken down by phase.
#[derive(Clone, Debug)]
pub struct CellOutcome {
    /// The cell that ran.
    pub cell: Cell,
    /// Its simulation result (bitwise-identical to a serial run).
    pub result: RunResult,
    /// Wall-clock milliseconds spent on this cell by its worker (trace
    /// build time is attributed to whichever cell built first).
    pub ms: f64,
    /// Milliseconds fetching (and, for the first cell per workload,
    /// building) the base trace.
    pub build_ms: f64,
    /// Milliseconds in the software passes, including the hot-spot
    /// profiling simulation; zero for a reused result.
    pub prepare_ms: f64,
    /// Milliseconds in the final machine run (for a result reused from an
    /// identical-fingerprint cell, the time spent waiting for that run).
    pub sim_ms: f64,
    /// Breakdown of `prepare_ms` by phase (analysis / profiling replay /
    /// prefetch selection), with `cached: true` on a reused result.
    pub phases: PrepPhases,
    /// Milliseconds of `sim_ms` the final machine run spent in
    /// *synchronous* chunk decode (the stall decode-ahead hides; zero on
    /// cached/journaled outcomes).
    pub decode_ms: f64,
    /// Chunk swap-ins the final run served from a ready decode-ahead
    /// buffer (DESIGN.md §17).
    pub prefetch_hits: u64,
    /// MiB of sealed chunks this cell's phases moved to the spill store
    /// (delta of the governor's counter across the cell; zero without
    /// `--mem-budget-mb`, and zero for cells whose traces were already
    /// built — spill cost is attributed to whichever cell built first,
    /// like `build_ms`).
    pub spilled_mb: f64,
    /// Milliseconds spent writing those spill frames.
    pub spill_ms: f64,
    /// The cell's 0-based rank in its request's [`dispatch_order`] (0 for
    /// serial single-cell runs). Observability only — results are always
    /// returned in cell-index order regardless of dispatch order.
    pub sched_order: usize,
    /// Attempt index that produced this outcome (0 unless a supervised run
    /// retried the cell).
    pub attempt: u32,
    /// True when the result was replayed from a run journal instead of
    /// simulated (`repro --journal … --resume`).
    pub journaled: bool,
}

/// Runs one cell through the cache: base trace, software passes, final
/// single-threaded machine run. Results are shared by fingerprint: the
/// first cell claims the fingerprint, simulates and publishes its result;
/// a later one is served it (identical by determinism) without preparing
/// or simulating, waiting while it is in flight, and runs the cell itself
/// only if the claimant fails. `cancel` reaches the wait and both machine
/// runs (profiling replay and final run).
///
/// Every stage — generation, the software passes, and the final machine
/// run — consumes and produces the columnar chunked representation, so no
/// stage ever materializes a per-CPU `Vec<Event>` of the whole trace.
pub(crate) fn run_cell(
    cache: &TraceCache,
    opts: BuildOptions,
    cell: &Cell,
    cancel: &CancelToken,
) -> Result<CellOutcome, SimError> {
    let t0 = Instant::now();
    let fp = cell.fingerprint(opts);
    // Held until this cell publishes its result (or fails, and the slot
    // empties for a waiter to take over).
    let _claim = match cache.claim_result(fp, cancel)? {
        SharedResult::Ready(result) => {
            let ms = 1e3 * t0.elapsed().as_secs_f64();
            return Ok(CellOutcome {
                ms,
                sim_ms: ms,
                ..resolved_outcome(cell, result.stats, false)
            });
        }
        SharedResult::Claimed(claim) => claim,
    };
    let spill0 = cache
        .spill_config()
        .map(|c| (c.budget.spilled_bytes(), c.budget.spill_ms()));
    let base = cache.base_chunked(cell.workload, opts);
    check_budget(cache)?;
    let built = Instant::now();
    let (prepared, phases) = cache.prepared_chunked_cancellable(&base, fp, cancel)?;
    check_budget(cache)?;
    let prep = Instant::now();
    let (result, overlap) = sim::run_prepared_chunked_timed(
        &base,
        &prepared,
        cell.spec,
        cell.geometry,
        AuditLevel::Off,
        cancel,
    )?;
    cache.store_result(fp, result.clone());
    let done = Instant::now();
    let (spilled_mb, spill_ms) = match (spill0, cache.spill_config()) {
        (Some((b0, ms0)), Some(cfg)) => (
            cfg.budget.spilled_bytes().saturating_sub(b0) as f64 / (1024.0 * 1024.0),
            (cfg.budget.spill_ms() - ms0).max(0.0),
        ),
        _ => (0.0, 0.0),
    };
    Ok(CellOutcome {
        cell: cell.clone(),
        result,
        ms: 1e3 * (done - t0).as_secs_f64(),
        build_ms: 1e3 * (built - t0).as_secs_f64(),
        prepare_ms: 1e3 * (prep - built).as_secs_f64(),
        sim_ms: 1e3 * (done - prep).as_secs_f64(),
        phases,
        decode_ms: overlap.decode_ms,
        prefetch_hits: overlap.prefetch_hits,
        spilled_mb,
        spill_ms,
        sched_order: 0,
        attempt: 0,
        journaled: false,
    })
}

/// What [`run_cells_supervised`] returns: a per-cell `Ok | Err` slot in
/// cell-index order plus everything the supervision layer observed.
pub struct SupervisedReport {
    /// One slot per input cell, same order as the input: the outcome, or
    /// the typed failure that exhausted the cell's retries.
    pub outcomes: Vec<Result<CellOutcome, CellFailure>>,
    /// Worker count actually used.
    pub jobs: usize,
    /// Wall-clock milliseconds for the whole fan-out.
    pub wall_ms: f64,
    /// Attempts that ran past the soft deadline, sorted by key and
    /// attempt (advisory under [`crate::Escalation::FlagOnly`]).
    pub overruns: Vec<Overrun>,
    /// Total retry attempts granted across all cells.
    pub retries: u64,
    /// Cells replayed from the run journal instead of simulated.
    pub journal_hits: usize,
    /// Journal writes that failed (the run continues; the journal just
    /// misses those cells on a later resume).
    pub journal_errors: Vec<String>,
}

impl SupervisedReport {
    /// Number of cells that completed successfully.
    pub fn completed(&self) -> usize {
        self.outcomes.iter().filter(|o| o.is_ok()).count()
    }

    /// The failures, in cell-index order.
    pub fn failures(&self) -> Vec<&CellFailure> {
        self.outcomes
            .iter()
            .filter_map(|o| o.as_ref().err())
            .collect()
    }
}

/// Fans `cells` out over `jobs` workers (clamped to the cell count; `0`
/// means [`default_jobs`]) under a [`RunPolicy`]: per-cell panic
/// isolation, bounded retry, soft deadlines, and optional journal
/// replay/record (DESIGN.md §13).
///
/// Each cell is simulated by exactly one worker; parallelism only
/// schedules whole cells, so results are bitwise-identical to running the
/// same cells serially. [`RunPolicy::fail_fast`] retries nothing.
///
/// Every cell gets a slot in the report — a panicking or failing cell
/// costs exactly its own slot, never the scope, the process, or the other
/// cells' completed work. With `journal` set, cells whose stable
/// fingerprint digest is already journaled are replayed without
/// simulation, and every newly-completed cell is appended to the journal
/// the moment it finishes, so a `SIGKILL` at any point loses at most the
/// cells in flight.
///
/// Determinism: supervision adds no scheduling influence on results —
/// retries rerun the same pure function, journal replay returns stats that
/// function already produced, and a flag-only deadline only observes. The same
/// `(cells, opts, policy.inject)` therefore yields the same per-slot
/// outcome pattern at any `jobs`.
pub fn run_cells_supervised(
    cache: &TraceCache,
    opts: BuildOptions,
    cells: &[Cell],
    jobs: usize,
    policy: &RunPolicy,
    journal: Option<&Journal>,
) -> SupervisedReport {
    let plan = RequestPlan::from_cells(cells, opts);
    run_plan_supervised(cache, opts, plan, jobs, policy, journal)
}

/// Static cost estimate of one cell, in arbitrary units (DESIGN.md §17).
///
/// The model is seeded from the measured shape of `repro --jobs 2
/// --timings all`: a hot-spot prefetch cell (`BCPref*`) costs its
/// coherence-ladder twin plus one profiling replay, which measures
/// ~0.6× a `Base` cell's replay (its prefetches are merged into the
/// final replay, so no rewrite is paid); coherence-ladder rewrites
/// (`privatize`/`relocate`/update mapping) sit between `Base` and
/// `BCPref`, and the block-op schemes add a little bus work each. The
/// deferred-copy analysis (two summary walks plus a re-encoding rewrite)
/// measures 0.8–1.3× a `Base` cell's replay, so a `Base+Deferred` cell
/// weighs about two `Base` cells. Trace scale multiplies everything
/// uniformly. Only the *relative* order matters: the scheduler uses these
/// costs to dispatch longest-first, and a wrong estimate costs only
/// makespan, never correctness — results are returned in cell-index order
/// regardless.
pub fn cell_cost(cell: &Cell, scale: f64) -> u64 {
    let mut units: u64 = 100;
    if cell.spec.hotspot_prefetch {
        units += 60;
    }
    if cell.spec.privatize {
        units += 20;
    }
    if cell.spec.relocate {
        units += 20;
    }
    if cell.spec.update != UpdatePolicy::None {
        units += 25;
    }
    if cell.spec.deferred_copy {
        units += 100;
    }
    if cell.spec.page_coloring {
        units += 10;
    }
    units += match cell.spec.block_scheme {
        oscache_memsys::BlockOpScheme::Cached => 0,
        oscache_memsys::BlockOpScheme::Pref => 10,
        oscache_memsys::BlockOpScheme::Bypass => 5,
        oscache_memsys::BlockOpScheme::ByPref => 10,
        oscache_memsys::BlockOpScheme::Dma => 5,
    };
    // Smaller caches miss more and simulate slower; sweeps below the
    // default 32 KB L1D lean long.
    if cell.geometry.l1d_size < 32 * 1024 {
        units += 20;
    }
    ((units as f64) * scale.max(1e-3) * 10.0) as u64
}

/// The deterministic longest-processing-time-first dispatch permutation
/// for `cells`: indices sorted by descending [`cell_cost`], ties broken
/// by ascending cell index. Workers claim cells in this order; the
/// result slots stay in cell-index order, so the permutation is invisible
/// in every output byte at any `--jobs` (pinned by `tests/schedule.rs`).
pub fn dispatch_order(cells: &[PlannedCell], scale: f64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..cells.len()).collect();
    order.sort_by_key(|&i| (std::cmp::Reverse(cell_cost(&cells[i].cell, scale)), i));
    order
}

/// [`run_cells_supervised`] over a pre-built [`RequestPlan`] (what
/// [`crate::Repro::warm_supervised`] runs): the plan is admitted as one
/// request on the dispatcher — the same one the resident service's pool
/// runs on — and `jobs` scoped workers claim its cells until none is
/// left.
pub(crate) fn run_plan_supervised(
    cache: &TraceCache,
    opts: BuildOptions,
    plan: RequestPlan,
    jobs: usize,
    policy: &RunPolicy,
    journal: Option<&Journal>,
) -> SupervisedReport {
    let t0 = Instant::now();
    let jobs = if jobs == 0 { default_jobs() } else { jobs };
    let jobs = jobs.min(plan.len()).max(1);
    let journal_errors = Mutex::new(Vec::new());
    let ctx = SuperviseCtx {
        cache,
        opts,
        policy,
        journal,
        journal_errors: &journal_errors,
    };
    let req = ctx.admit(String::new(), Arc::new(plan), CancelToken::none(), ());
    let sched = Mutex::new(Sched::new(vec![req]));
    std::thread::scope(|s| {
        for _ in 0..jobs {
            s.spawn(|| {
                ctx.work(
                    || lock_tolerant(&sched).pick(),
                    |job, out, overruns| {
                        lock_tolerant(&sched).record(job, out, overruns);
                    },
                )
            });
        }
    });
    let Req {
        slots,
        mut overruns,
        ..
    } = lock_tolerant(&sched).requests.remove(0);
    overruns.sort_by(|a, b| a.key.cmp(&b.key).then(a.attempt.cmp(&b.attempt)));
    // Workers run until nothing is left to claim, and record every cell
    // they claim; a cell's panic is caught inside its supervision.
    let outcomes: Vec<_> = slots
        .into_iter()
        .map(|slot| slot.expect("every cell is claimed and recorded"))
        .collect();
    SupervisedReport {
        retries: outcomes.iter().map(|o| u64::from(attempt_of(o))).sum(),
        journal_hits: outcomes
            .iter()
            .filter(|o| matches!(o, Ok(o) if o.journaled))
            .count(),
        outcomes,
        jobs,
        wall_ms: 1e3 * t0.elapsed().as_secs_f64(),
        overruns,
        journal_errors: journal_errors
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner),
    }
}

/// The attempt that filled a cell's slot: the retries the cell was granted.
pub(crate) fn attempt_of(out: &Result<CellOutcome, CellFailure>) -> u32 {
    match out {
        Ok(o) => o.attempt,
        Err(f) => f.attempt,
    }
}

/// One outcome slot of a request: `None` until the cell is processed.
pub(crate) type Slot = Option<Result<CellOutcome, CellFailure>>;

/// One admitted request on the dispatcher, with one outcome slot per plan
/// cell. `X` is what its owner tracks besides (the service's deadline,
/// client channel and experiments; nothing for the one-shot run).
pub(crate) struct Req<X> {
    /// Assigned by the owner (the one-shot run's only request is 0).
    pub(crate) id: u64,
    client: String,
    pub(crate) plan: Arc<RequestPlan>,
    /// The token every cell of the request polls.
    pub(crate) cancel: CancelToken,
    /// The cells admission could not resolve, as (plan index, rank in
    /// [`dispatch_order`]) in that order: the only cells workers see.
    pub(crate) todo: Vec<(usize, usize)>,
    /// Next undispatched position in `todo`.
    pub(crate) next: usize,
    /// Cells dispatched to workers and not yet recorded back.
    pub(crate) inflight: usize,
    pub(crate) slots: Vec<Slot>,
    /// Attempts of this request's cells that ran past the soft deadline.
    overruns: Vec<Overrun>,
    pub(crate) ext: X,
}

/// A claimed cell, run outside the dispatcher's lock.
pub(crate) struct Job {
    id: u64,
    plan: Arc<RequestPlan>,
    /// The cell's plan index.
    pub(crate) cidx: usize,
    /// Its rank in [`dispatch_order`], the outcome's `sched_order`.
    rank: usize,
    cancel: CancelToken,
}

/// The dispatcher's state, kept under its owner's one lock: admitted
/// requests in arrival order and the rotation over their clients.
pub(crate) struct Sched<X> {
    pub(crate) requests: Vec<Req<X>>,
    rr: u64,
}

impl<X> Sched<X> {
    pub(crate) fn new(requests: Vec<Req<X>>) -> Self {
        Sched { requests, rr: 0 }
    }

    /// Admitted cells not yet dispatched.
    pub(crate) fn queued(&self) -> usize {
        self.requests.iter().map(|r| r.todo.len() - r.next).sum()
    }

    /// Claims the next cell under two-level round-robin: rotate across
    /// distinct clients with cells left (arrival order), FIFO across each
    /// client's requests, and longest-first within a request.
    pub(crate) fn pick(&mut self) -> Option<Job> {
        // Each client's first request with cells left.
        let mut heads: Vec<usize> = Vec::new();
        for (i, r) in self.requests.iter().enumerate() {
            let seen = heads.iter().any(|&h| self.requests[h].client == r.client);
            if r.next < r.todo.len() && !seen {
                heads.push(i);
            }
        }
        if heads.is_empty() {
            return None;
        }
        let pos = heads[self.rr as usize % heads.len()];
        self.rr += 1;
        let req = &mut self.requests[pos];
        let (cidx, rank) = req.todo[req.next];
        req.next += 1;
        req.inflight += 1;
        Some(Job {
            id: req.id,
            plan: Arc::clone(&req.plan),
            cidx,
            rank,
            cancel: req.cancel.clone(),
        })
    }

    /// Fills a processed cell's slot, stamped with its dispatch rank, and
    /// returns its request's position (`None` once the request is gone).
    pub(crate) fn record(
        &mut self,
        job: &Job,
        mut out: Result<CellOutcome, CellFailure>,
        overruns: Vec<Overrun>,
    ) -> Option<usize> {
        let pos = self.requests.iter().position(|r| r.id == job.id)?;
        let req = &mut self.requests[pos];
        if let Ok(o) = &mut out {
            o.sched_order = job.rank;
        }
        req.slots[job.cidx] = Some(out);
        req.inflight -= 1;
        req.overruns.extend(overruns);
        Some(pos)
    }
}

/// The outcome of a cell answered without running anything: from its
/// journal record (`journaled`), or from a result this process already
/// simulated.
pub(crate) fn resolved_outcome(cell: &Cell, stats: SimStats, journaled: bool) -> CellOutcome {
    CellOutcome {
        cell: cell.clone(),
        result: RunResult {
            stats,
            spec: cell.spec,
            geometry: cell.geometry,
        },
        ms: 0.0,
        build_ms: 0.0,
        prepare_ms: 0.0,
        sim_ms: 0.0,
        phases: PrepPhases {
            cached: true,
            ..PrepPhases::default()
        },
        decode_ms: 0.0,
        prefetch_hits: 0,
        spilled_mb: 0.0,
        spill_ms: 0.0,
        sched_order: 0,
        attempt: 0,
        journaled,
    }
}

/// What every cell on the dispatcher runs against: the shared cache, the
/// build options, the supervision policy, and the optional journal.
/// Both entry points build one — [`run_cells_supervised`] per run, the
/// resident service ([`crate::service`]) per worker of its pool.
pub(crate) struct SuperviseCtx<'a> {
    pub(crate) cache: &'a TraceCache,
    pub(crate) opts: BuildOptions,
    pub(crate) policy: &'a RunPolicy,
    pub(crate) journal: Option<&'a Journal>,
    /// Journal writes that failed (the run goes on without them).
    pub(crate) journal_errors: &'a Mutex<Vec<String>>,
}

impl SuperviseCtx<'_> {
    /// Admits `plan` as one request: every cell already held — its journal
    /// record, or without a journal a result this cache simulated — fills
    /// its slot here, and the rest queue in [`dispatch_order`].
    pub(crate) fn admit<X>(
        &self,
        client: String,
        plan: Arc<RequestPlan>,
        cancel: CancelToken,
        ext: X,
    ) -> Req<X> {
        let mut slots: Vec<Slot> = plan.cells.iter().map(|_| None).collect();
        let mut todo = Vec::new();
        for (rank, i) in dispatch_order(&plan.cells, self.opts.scale)
            .into_iter()
            .enumerate()
        {
            let pc = &plan.cells[i];
            let held = match self.journal {
                Some(j) => j
                    .lookup(pc.digest)
                    .map(|stats| resolved_outcome(&pc.cell, stats, true)),
                None => self
                    .cache
                    .shared_result(&pc.fingerprint)
                    .map(|r| resolved_outcome(&pc.cell, r.stats, false)),
            };
            match held {
                Some(o) => {
                    slots[i] = Some(Ok(CellOutcome {
                        sched_order: rank,
                        ..o
                    }))
                }
                None => todo.push((i, rank)),
            }
        }
        Req {
            id: 0,
            client,
            plan,
            cancel,
            todo,
            next: 0,
            inflight: 0,
            slots,
            overruns: Vec::new(),
            ext,
        }
    }

    /// The worker loop of both entry points: claims cells until `claim`
    /// returns `None`, runs each — a cell whose request was cancelled
    /// before it started fails as a timeout without simulating — and
    /// hands it to `record` with the attempts that overran the soft
    /// deadline.
    pub(crate) fn work(
        &self,
        mut claim: impl FnMut() -> Option<Job>,
        mut record: impl FnMut(&Job, Result<CellOutcome, CellFailure>, Vec<Overrun>),
    ) {
        while let Some(job) = claim() {
            let pc = &job.plan.cells[job.cidx];
            let mut overruns = Vec::new();
            let out = if job.cancel.is_cancelled() {
                Err(CellFailure {
                    cell: pc.cell.clone(),
                    attempt: 0,
                    cause: FailureCause::Timeout,
                })
            } else {
                supervise_one(self, pc, &job.cancel, &mut overruns)
            };
            record(&job, out, overruns);
        }
    }
}

/// Runs one cell under the supervision policy: panic isolation, bounded
/// retry, soft deadlines (overrunning attempts are pushed onto
/// `overruns`), journal record, cooperative cancellation through `cancel`
/// — the request's token, inert for one-shot runs. Journal replay happens
/// at admission; a cell journaled after its request was admitted was
/// simulated in this process, so the shared result answers it.
fn supervise_one(
    ctx: &SuperviseCtx<'_>,
    pc: &PlannedCell,
    cancel: &CancelToken,
    overruns: &mut Vec<Overrun>,
) -> Result<CellOutcome, CellFailure> {
    let (cell, key, digest) = (&pc.cell, pc.key.as_str(), pc.digest);
    // This thread is busy with the cell, so its machines' decode-ahead
    // helpers need a core beyond it (DESIGN.md §17).
    let _busy = CoreGauge::process().lease();
    let deadline = ctx
        .policy
        .soft_deadline_ms
        .map(|ms| Duration::from_millis(ms.max(1)));
    let mut attempt: u32 = 0;
    let out = loop {
        // The token the machine polls: the caller's, or — when the soft
        // deadline escalates — a child of it that also trips once the
        // grace is spent, so a kill hits exactly this attempt. A kill
        // instant past what `Instant` can hold never comes.
        let started = Instant::now();
        let kill_at = deadline
            .zip(ctx.policy.grace())
            .and_then(|(d, g)| started.checked_add(d + g));
        let attempt_cancel = match kill_at {
            Some(at) => cancel.child_until(at),
            None => cancel.clone(),
        };
        let attempt_result = catch_unwind(AssertUnwindSafe(|| {
            if let Some(fault) = &ctx.policy.inject {
                if fault.fires(key, attempt) {
                    panic!(
                        "injected cell fault (seed {}, attempt {attempt})",
                        fault.seed
                    );
                }
            }
            run_cell(ctx.cache, ctx.opts, cell, &attempt_cancel)
        }));
        let elapsed = started.elapsed();
        if let Some(d) = deadline.filter(|&d| elapsed > d) {
            overruns.push(Overrun {
                key: key.to_string(),
                attempt,
                deadline_ms: d.as_millis() as u64,
                elapsed_ms: 1e3 * elapsed.as_secs_f64(),
            });
        }
        let cause = match attempt_result {
            Ok(Ok(mut o)) => {
                o.attempt = attempt;
                break Ok(o);
            }
            Ok(Err(e)) if e.is_cancelled() => {
                // A cancelled attempt is a deadline death, not a cell
                // defect: map to Timeout and never retry — the deadline
                // is already spent.
                break Err(CellFailure {
                    cell: cell.clone(),
                    attempt,
                    cause: FailureCause::Timeout,
                });
            }
            Ok(Err(e)) if e.is_overloaded() => {
                // The governor is process-wide and its degradation sticky
                // (disk full stays full): retrying the same cell can only
                // reproduce the same rejection. Fail it immediately so
                // callers surface *overloaded* without burning retries.
                break Err(CellFailure {
                    cell: cell.clone(),
                    attempt,
                    cause: FailureCause::Sim(e),
                });
            }
            Ok(Err(e)) => FailureCause::Sim(e),
            Err(payload) => FailureCause::Panic(panic_message(payload)),
        };
        if attempt >= ctx.policy.max_retries {
            break Err(CellFailure {
                cell: cell.clone(),
                attempt,
                cause,
            });
        }
        std::thread::sleep(ctx.policy.backoff(attempt));
        attempt += 1;
    };
    if let (Some(j), Ok(o)) = (ctx.journal, &out) {
        if let Err(e) = j.append(JournalRecord {
            digest,
            key: key.to_string(),
            attempt: o.attempt,
            ms: o.ms,
            stats: o.result.stats.clone(),
        }) {
            lock_tolerant(ctx.journal_errors).push(format!("{key}: {e}"));
        }
    }
    out
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// One of the paper's reproducible experiments, as named on the `repro`
/// command line.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Experiment {
    /// Table 1: workload characteristics.
    Table1,
    /// Table 2: OS read-miss breakdown.
    Table2,
    /// Table 3: block-operation characteristics.
    Table3,
    /// Table 4: the deferred-copy study.
    Table4,
    /// Table 5: coherence-miss breakdown.
    Table5,
    /// Figure 1: block-operation overhead components.
    Fig1,
    /// Figure 2: block-operation schemes.
    Fig2,
    /// Figure 3: normalized OS execution time.
    Fig3,
    /// Figure 4: coherence optimizations.
    Fig4,
    /// Figure 5: hot-spot prefetching.
    Fig5,
    /// Figure 6: L1D size sweep.
    Fig6,
    /// Figure 7: L1 line-size sweep.
    Fig7,
    /// The paper's §8 headline claims.
    Headline,
    /// The claim-by-claim agreement scorecard.
    Scorecard,
}

impl Experiment {
    /// All experiments in `repro all` order.
    pub fn all() -> [Experiment; 14] {
        use Experiment::*;
        [
            Table1, Table2, Table3, Table4, Table5, Fig1, Fig2, Fig3, Fig4, Fig5, Fig6, Fig7,
            Headline, Scorecard,
        ]
    }

    /// The command-line name (`table1` … `fig7`, `headline`, `scorecard`).
    pub fn name(self) -> &'static str {
        use Experiment::*;
        match self {
            Table1 => "table1",
            Table2 => "table2",
            Table3 => "table3",
            Table4 => "table4",
            Table5 => "table5",
            Fig1 => "fig1",
            Fig2 => "fig2",
            Fig3 => "fig3",
            Fig4 => "fig4",
            Fig5 => "fig5",
            Fig6 => "fig6",
            Fig7 => "fig7",
            Headline => "headline",
            Scorecard => "scorecard",
        }
    }

    /// Parses a command-line experiment name.
    pub fn parse(name: &str) -> Option<Experiment> {
        Experiment::all()
            .into_iter()
            .find(|e| e.name().eq_ignore_ascii_case(name))
    }

    /// Every simulation cell this experiment needs — exactly the cells the
    /// serial table/figure code would run, so warming them in parallel
    /// leaves nothing but cache hits for the render pass.
    pub fn cells(self) -> Vec<Cell> {
        use Experiment::*;
        let mut cells = Vec::new();
        let mut systems = |list: &[System]| {
            for w in Workload::all() {
                for &s in list {
                    cells.push(Cell::system(w, s));
                }
            }
        };
        match self {
            Table1 | Table2 | Table5 | Fig1 => systems(&[System::Base]),
            Table3 => systems(&[System::Base, System::BlkBypass]),
            Table4 => {
                systems(&[System::Base]);
                for w in Workload::all() {
                    let mut spec = System::Base.spec();
                    spec.deferred_copy = true;
                    cells.push(Cell {
                        workload: w,
                        spec,
                        geometry: Geometry::default(),
                        tag: "Base+Deferred".to_string(),
                    });
                }
            }
            Fig2 => systems(&[
                System::Base,
                System::BlkPref,
                System::BlkBypass,
                System::BlkByPref,
                System::BlkDma,
            ]),
            Fig3 => systems(&System::all()),
            Fig4 => systems(&[
                System::Base,
                System::BlkDma,
                System::BCohReloc,
                System::BCohRelUp,
            ]),
            Fig5 => systems(&[
                System::Base,
                System::BlkDma,
                System::BCohRelUp,
                System::BCPref,
            ]),
            Fig6 | Fig7 => {
                let sweep = if self == Fig6 {
                    figure6_sweep()
                } else {
                    figure7_sweep()
                };
                for (label, geom) in sweep {
                    for w in Workload::all() {
                        for sys in [System::Base, System::BlkDma, System::BCPref] {
                            cells.push(Cell {
                                workload: w,
                                spec: sys.spec(),
                                geometry: geom,
                                tag: format!("{}@{label}", sys.label()),
                            });
                        }
                    }
                }
            }
            Headline => systems(&[System::Base, System::BlkDma, System::BCPref]),
            Scorecard => {
                systems(&[
                    System::Base,
                    System::BlkPref,
                    System::BlkBypass,
                    System::BlkDma,
                    System::BCPref,
                ]);
                for w in [Workload::Trfd4, Workload::Arc2dFsck] {
                    cells.push(Cell::system(w, System::BCohReloc));
                    cells.push(Cell::system(w, System::BCohRelUp));
                }
                cells.extend(Experiment::Table4.cells());
            }
        }
        cells
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn memo_builds_once() {
        let memo = Memo::default();
        let calls = AtomicUsize::new(0);
        let a = memo.get_or_build(0, || {
            calls.fetch_add(1, Ordering::SeqCst);
            7u64
        });
        let b = memo.get_or_build(0, || {
            calls.fetch_add(1, Ordering::SeqCst);
            8u64
        });
        assert_eq!((a, b), (7, 7));
        assert_eq!(calls.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn memo_survives_builder_panic() {
        let memo = Memo::default();
        let r = catch_unwind(AssertUnwindSafe(|| {
            memo.get_or_build(0, || -> u64 { panic!("builder died") })
        }));
        assert!(r.is_err(), "panic must propagate to the builder's caller");
        // The slot is empty again, not poisoned: the next caller rebuilds.
        assert_eq!(memo.get_or_build(0, || 42u64), 42);
    }

    #[test]
    fn memo_waiter_takes_over_after_panic() {
        let memo = Memo::default();
        let builds = AtomicUsize::new(0);
        let results: Vec<Result<u64, ()>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        catch_unwind(AssertUnwindSafe(|| {
                            memo.get_or_build(0, || {
                                // The first builder panics; whichever
                                // waiter takes over succeeds.
                                if builds.fetch_add(1, Ordering::SeqCst) == 0 {
                                    panic!("first build fails");
                                }
                                11u64
                            })
                        }))
                        .map_err(|_| ())
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let ok = results.iter().filter(|r| **r == Ok(11)).count();
        let failed = results.iter().filter(|r| r.is_err()).count();
        assert_eq!(failed, 1, "exactly the panicking builder's caller fails");
        assert_eq!(ok, 3, "every waiter recovers");
        assert_eq!(memo.get_or_build(0, || 0), 11);
    }
}
