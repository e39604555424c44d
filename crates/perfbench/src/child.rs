//! One repetition of one workload, run in a process of its own so that
//! its peak RSS is its own and no cache warms another repetition.
//!
//! Untraced repetitions go through the same entry points a user does
//! (`Repro::warm_supervised`, `run_cells_supervised`, the service behind
//! its Unix socket) and report the end-to-end metrics. Traced repetitions
//! drive the layers' public functions directly, with a span around each
//! call, and report the per-layer metrics.

use crate::spans::{Recorder, Span};
use crate::stats::{report_value, DigestLines};
use oscache_core::experiments::render_experiment;
use oscache_core::runner::{CellOutcome, PlannedCell};
use oscache_core::service::{
    parse_reply, peak_rss_mb, reply_line, run_request_line, serve_unix, Admission, Event, Reply,
    RequestReport, RunRequest, Server, ServiceConfig,
};
use oscache_core::{
    dispatch_order, run_cells_supervised, run_prepared_chunked_timed, Cell, Experiment, Journal,
    JournalHeader, JournalRecord, PrepPhases, Repro, RequestPlan, RunPolicy, RunResult, System,
    TraceCache,
};
use oscache_memsys::{AuditLevel, CancelToken, SimStats};
use oscache_trace::rng::{RngCore, SmallRng};
use oscache_trace::ChunkedTrace;
use oscache_workloads::{build_chunked, BuildOptions, Workload};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::io::{ErrorKind, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// Worker threads of `matrix` and of the service.
pub const JOBS: usize = 2;
/// Trace scale of `matrix`.
pub const MATRIX_SCALE: f64 = 0.05;
/// Trace scale of `spill`.
pub const SPILL_SCALE: f64 = 1.5;
/// Memory budget of `spill`, in MiB.
pub const SPILL_BUDGET_MB: u64 = 9;
/// Trace scale of `service`.
pub const SERVICE_SCALE: f64 = 0.1;
/// Closed-loop clients of `service`. One, not two: on a 2-core box two
/// clients plus the server's two workers and two connection threads
/// oversubscribe the cores, and the run then measures the scheduler.
pub const CLIENTS: usize = 1;
/// Timed requests per `service` repetition (split across the clients).
pub const SERVICE_REQUESTS: usize = 2500;
/// The experiments `service` clients draw their requests from.
pub const SERVICE_MIX: [Experiment; 7] = [
    Experiment::Table1,
    Experiment::Table2,
    Experiment::Table3,
    Experiment::Table5,
    Experiment::Fig1,
    Experiment::Fig2,
    Experiment::Fig4,
];

/// What one repetition was asked to do.
pub struct Params {
    /// Workload name.
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// Traced (per-layer) or untraced (end-to-end) repetition.
    pub traced: bool,
    /// When the coordinator spawned this process, in Unix nanoseconds.
    pub spawned_at_ns: u128,
}

/// Scratch directory of a repetition's journal and socket, relative to
/// the working directory so that the socket path stays short.
pub const TMP_DIR: &str = ".perfbench/tmp";

/// One checked operation: a cell or rendered report (batch workloads) or
/// a request (service).
pub struct Op {
    /// The digest tag the operation's output is checked under.
    pub tag: String,
    /// False when the operation failed or returned a wrong result.
    pub ok: bool,
    /// Host latency in milliseconds, for operations timed one by one.
    pub latency_ms: Option<f64>,
}

/// Everything a repetition reports to the coordinator.
#[derive(Default)]
pub struct Rep {
    /// Metric name → value.
    pub metrics: BTreeMap<&'static str, f64>,
    /// The checked operations.
    pub ops: Vec<Op>,
    /// The canonical output.
    pub digest: DigestLines,
    /// Scorecard claims that hold (`matrix` only).
    pub scorecard: Option<usize>,
    /// Recorded spans (traced repetitions only).
    pub spans: Vec<Span>,
}

/// Runs one repetition of `p.workload`.
pub fn run(p: &Params) -> Result<Rep, String> {
    match (p.workload.as_str(), p.traced) {
        ("matrix", false) => matrix(p),
        ("matrix", true) => matrix_traced(p),
        ("spill", false) => spill(p),
        ("spill", true) => spill_traced(p),
        ("service", traced) => service(p, traced),
        (w, _) => Err(format!("unknown workload {w:?}")),
    }
}

pub fn unix_ns() -> u128 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos())
}

/// Marks the start of the timed phase: returns its clock and the set-up
/// time since the coordinator spawned this process.
fn timed_start(p: &Params) -> (Instant, f64) {
    let setup_s = unix_ns().saturating_sub(p.spawned_at_ns) as f64 / 1e9;
    (Instant::now(), setup_s)
}

fn opts(scale: f64, seed: u64) -> BuildOptions {
    BuildOptions {
        scale,
        seed,
        ..Default::default()
    }
}

fn cell_value(stats: &SimStats) -> String {
    format!(
        "{} {}",
        stats.total().os_read_misses(),
        stats.total_cpu_cycles()
    )
}

fn peak_rss() -> f64 {
    peak_rss_mb().unwrap_or(f64::NAN)
}

/// Events of each workload's base trace in `cache`.
fn base_events(cache: &TraceCache) -> HashMap<Workload, u64> {
    cache
        .build_timings()
        .into_iter()
        .map(|b| (b.key.workload, b.events))
        .collect()
}

/// Sum of base-trace events over the distinct fingerprints of `plan`:
/// each is fed to a `Machine` exactly once per run.
fn plan_events(plan: &RequestPlan, events: &HashMap<Workload, u64>) -> u64 {
    let fps: HashSet<_> = plan.cells.iter().map(|pc| pc.fingerprint).collect();
    fps.iter()
        .map(|fp| events.get(&fp.base.workload).copied().unwrap_or(0))
        .sum()
}

/// `runner.*` metrics of a real fan-out over `jobs` workers that took
/// `wall_ms`, from each completed cell's `(ms, deduplicated)`. The tail is
/// the mean time a worker other than the last one sat idle at the end
/// (0 for one worker).
fn runner_metrics(rep: &mut Rep, jobs: usize, wall_ms: f64, cells: &[(f64, bool)]) {
    let busy_ms: f64 = cells.iter().map(|c| c.0).sum();
    let idle_ms = (jobs as f64 * wall_ms - busy_ms).max(0.0);
    let tail_ms = if jobs > 1 {
        idle_ms / (jobs - 1) as f64
    } else {
        0.0
    };
    rep.metrics
        .insert("runner.parallel_eff", busy_ms / (jobs as f64 * wall_ms));
    rep.metrics.insert("runner.tail_ms", tail_ms);
    rep.metrics.insert(
        "runner.result_dedup_hits",
        cells.iter().filter(|c| c.1).count() as f64,
    );
}

/// Whether the runner served a cell from an identical-fingerprint cell's
/// result (`shared_result`): it skipped preparation entirely.
fn deduplicated(cached: bool, prepare_ms: f64, journaled: bool) -> bool {
    cached && prepare_ms == 0.0 && !journaled
}

fn batch_metrics(rep: &mut Rep, setup_s: f64, wall: Duration, events: u64) {
    let wall_s = wall.as_secs_f64();
    rep.metrics.insert("wall_s", wall_s);
    rep.metrics.insert("setup_s", setup_s);
    rep.metrics
        .insert("sim_mev_s", events as f64 / 1e6 / wall_s);
    rep.metrics.insert("peak_rss_mb", peak_rss());
}

/// Records a rendered report as an operation and a digest line.
fn push_report(rep: &mut Rep, e: Experiment, text: &str) {
    let tag = format!("report:{}", e.name());
    rep.digest.insert(tag.clone(), report_value(text));
    rep.ops.push(Op {
        tag,
        ok: true,
        latency_ms: None,
    });
}

/// Renders every experiment whose cells all completed, and the
/// scorecard when the whole matrix did.
fn render_matrix(rep: &mut Rep, r: &mut Repro, rec: Option<&Recorder>) {
    for e in Experiment::all() {
        if !r.experiment_ready(e) {
            continue;
        }
        let text = match rec {
            Some(rec) => rec.span("report.render", None, e.name(), |_| render_experiment(r, e)),
            None => render_experiment(r, e),
        };
        push_report(rep, e, &text);
    }
}

/// Digest lines of every completed cell of `plan` (already simulated, so
/// `run_spec` only reads the run cache).
fn matrix_digest(rep: &mut Rep, r: &mut Repro, plan: &RequestPlan, done: &HashSet<String>) {
    for pc in plan.cells.iter().filter(|pc| done.contains(&pc.key)) {
        let c = &pc.cell;
        let stats = &r.run_spec(c.workload, c.spec, c.geometry, &c.tag).stats;
        rep.digest
            .insert(format!("cell:{}", pc.key), cell_value(stats));
    }
    if done.len() == plan.len() {
        rep.scorecard = Some(r.scorecard().passed());
    }
}

fn matrix(p: &Params) -> Result<Rep, String> {
    let mut r = Repro::with_jobs(MATRIX_SCALE, JOBS);
    r.seed = p.seed;
    let (t0, setup_s) = timed_start(p);
    let warm = r.warm_supervised(&Experiment::all(), &RunPolicy::fail_fast(), None);
    let mut rep = Rep::default();
    render_matrix(&mut rep, &mut r, None);
    let wall = t0.elapsed();
    let plan = RequestPlan::for_experiments(&Experiment::all(), r.build_options(), |_| false);
    let events = plan_events(&plan, &base_events(r.cache()));
    batch_metrics(&mut rep, setup_s, wall, events);
    for c in &warm.cells {
        rep.ops.push(Op {
            tag: format!("cell:{}", c.key),
            ok: true,
            latency_ms: Some(c.ms),
        });
    }
    for f in &warm.failures {
        rep.ops.push(Op {
            tag: format!("cell:{}", f.cell.key()),
            ok: false,
            latency_ms: None,
        });
    }
    let cells: Vec<(f64, bool)> = warm
        .cells
        .iter()
        .map(|c| (c.ms, deduplicated(c.cached, c.prepare_ms, c.journaled)))
        .collect();
    runner_metrics(&mut rep, warm.jobs, warm.wall_ms, &cells);
    let done: HashSet<String> = warm.cells.iter().map(|c| c.key.clone()).collect();
    matrix_digest(&mut rep, &mut r, &plan, &done);
    Ok(rep)
}

/// What the traced fan-out learned about one cell besides its outcome.
struct CellRun {
    outcome: CellOutcome,
    /// Events of the trace the final machine replayed (0 when shared).
    machine_events: u64,
    /// Events of the cell's base trace.
    base_events: u64,
    /// Chunk swap-ins decoded synchronously by the final run.
    sync_decodes: u64,
    /// The result came from an identical-fingerprint cell.
    shared: bool,
}

/// Runs one planned cell the way the runner composes it, with a span
/// around each layer call: base trace, preparation, machine replay, and
/// result sharing for fingerprints that recur in the plan.
fn run_cell_traced(
    rec: &Recorder,
    parent: usize,
    cache: &TraceCache,
    opts: BuildOptions,
    pc: &PlannedCell,
    share: bool,
) -> Result<CellRun, String> {
    let cell = &pc.cell;
    let fp = pc.fingerprint;
    let build_span = if cache.spill_config().is_some() {
        "spill.base_chunked"
    } else {
        "workloads.base_chunked"
    };
    rec.span("runner.cell", Some(parent), &pc.key, |id| {
        let t0 = Instant::now();
        let base = rec.span(build_span, Some(id), cell.workload.name(), |_| {
            cache.base_chunked(cell.workload, opts)
        });
        let built = Instant::now();
        let base_events = base.total_events() as u64;
        let outcome = |result, phases, prep: Instant, done: Instant| CellOutcome {
            cell: cell.clone(),
            result,
            ms: 1e3 * (done - t0).as_secs_f64(),
            build_ms: 1e3 * (built - t0).as_secs_f64(),
            prepare_ms: 1e3 * (prep - built).as_secs_f64(),
            sim_ms: 1e3 * (done - prep).as_secs_f64(),
            phases,
            decode_ms: 0.0,
            prefetch_hits: 0,
            spilled_mb: 0.0,
            spill_ms: 0.0,
            sched_order: 0,
            attempt: 0,
            journaled: false,
        };
        if share {
            if let Some(result) = cache.shared_result(&fp) {
                let phases = PrepPhases {
                    cached: true,
                    ..PrepPhases::default()
                };
                let now = Instant::now();
                return Ok(CellRun {
                    outcome: outcome(result, phases, built, now),
                    machine_events: 0,
                    base_events,
                    sync_decodes: 0,
                    shared: true,
                });
            }
        }
        let none = CancelToken::none();
        let (prepared, phases) = rec
            .span("prepare", Some(id), &pc.key, |_| {
                cache.prepared_chunked_cancellable(&base, fp, &none)
            })
            .map_err(|e| format!("{}: {e}", pc.key))?;
        let prep = Instant::now();
        let (result, overlap) = rec
            .span("machine", Some(id), &pc.key, |_| {
                run_prepared_chunked_timed(
                    &base,
                    &prepared,
                    cell.spec,
                    cell.geometry,
                    AuditLevel::Off,
                    &none,
                )
            })
            .map_err(|e| format!("{}: {e}", pc.key))?;
        if share {
            cache.store_result(fp, result.clone());
        }
        let machine_events = prepared.trace.as_deref().unwrap_or(&base).total_events() as u64;
        let mut o = outcome(result, phases, prep, Instant::now());
        o.decode_ms = overlap.decode_ms;
        o.prefetch_hits = overlap.prefetch_hits;
        Ok(CellRun {
            outcome: o,
            machine_events,
            base_events,
            sync_decodes: overlap.sync_decodes,
            shared: false,
        })
    })
}

/// The traced replica of the runner's fan-out: `jobs` threads claim the
/// plan's cells in `dispatch_order`. Returns per-cell runs in plan order.
/// The `runner.*` metrics come from the real runner instead (the untraced
/// repetitions), so that they move with `core::runner`.
fn fanout_traced(
    rec: &Recorder,
    cache: &TraceCache,
    opts: BuildOptions,
    plan: &RequestPlan,
    jobs: usize,
) -> Vec<Result<CellRun, String>> {
    let recurring = plan.recurring();
    let order = dispatch_order(&plan.cells, opts.scale);
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Result<CellRun, String>>>> =
        plan.cells.iter().map(|_| Mutex::new(None)).collect();
    rec.span("runner.fanout", None, "", |fan| {
        std::thread::scope(|s| {
            for w in 0..jobs {
                let (next, order, slots) = (&next, &order, &slots);
                let recurring = &recurring;
                s.spawn(move || {
                    rec.span("runner.worker", Some(fan), &w.to_string(), |wid| loop {
                        let rank = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&i) = order.get(rank) else {
                            break;
                        };
                        let pc = &plan.cells[i];
                        let share = recurring.contains(&pc.fingerprint);
                        let out = run_cell_traced(rec, wid, cache, opts, pc, share).map(|mut r| {
                            r.outcome.sched_order = rank;
                            r
                        });
                        *slots[i].lock().expect("slot lock poisoned") = Some(out);
                    });
                });
            }
        })
    });
    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("slot lock poisoned")
                .unwrap_or_else(|| Err("cell never ran".to_string()))
        })
        .collect()
}

/// Per-layer metrics of the preparation and machine layers over `runs`.
fn cell_layer_metrics(spans: &[Span], runs: &[&CellRun], m: &mut BTreeMap<&'static str, f64>) {
    let sum_ms =
        |name: &str| -> f64 { spans.iter().filter(|s| s.name == name).map(Span::ms).sum() };
    let prepared: Vec<&&CellRun> = runs.iter().filter(|r| !r.shared).collect();
    let phase_sum =
        |f: fn(&PrepPhases) -> f64| -> f64 { prepared.iter().map(|r| f(&r.outcome.phases)).sum() };
    let hits = prepared
        .iter()
        .filter(|r| r.outcome.phases.cached || r.outcome.phases.analyze_ms == 0.0)
        .count();
    m.insert("prepare.ms", sum_ms("prepare"));
    m.insert("prepare.analyze_ms", phase_sum(|p| p.analyze_ms));
    let profile_ms = phase_sum(|p| p.profile_ms);
    m.insert("prepare.profile_ms", profile_ms);
    m.insert("prepare.rewrite_ms", phase_sum(|p| p.rewrite_ms));
    m.insert(
        "prepare.cache_hit_ratio",
        hits as f64 / prepared.len().max(1) as f64,
    );
    let profiled: u64 = prepared
        .iter()
        .filter(|r| r.outcome.phases.profile_ms > 0.0)
        .map(|r| r.base_events)
        .sum();
    m.insert("profiler.mev_s", mev_per_s(profiled, profile_ms));
    let machine_ms = sum_ms("machine");
    let machine_events: u64 = prepared.iter().map(|r| r.machine_events).sum();
    m.insert("machine.ms", machine_ms);
    m.insert("machine.mev_s", mev_per_s(machine_events, machine_ms));
    m.insert(
        "machine.decode_sync_ms",
        prepared.iter().map(|r| r.outcome.decode_ms).sum(),
    );
    let hits: u64 = prepared.iter().map(|r| r.outcome.prefetch_hits).sum();
    let syncs: u64 = prepared.iter().map(|r| r.sync_decodes).sum();
    m.insert(
        "machine.prefetch_hit_ratio",
        hits as f64 / (hits + syncs).max(1) as f64,
    );
}

/// Millions of events per second (0 when nothing was timed).
fn mev_per_s(events: u64, ms: f64) -> f64 {
    if ms > 0.0 {
        events as f64 / 1e3 / ms
    } else {
        0.0
    }
}

/// `workloads.*` (or `spill.build_ms`) from the first base-trace call per
/// workload — the one that built it.
fn build_metrics(spans: &[Span], cache: &TraceCache, opts: BuildOptions) -> (f64, f64) {
    let mut first: HashMap<&str, &Span> = HashMap::new();
    for s in spans
        .iter()
        .filter(|s| s.name == "workloads.base_chunked" || s.name == "spill.base_chunked")
    {
        let e = first.entry(s.tag.as_str()).or_insert(s);
        if s.start_ns < e.start_ns {
            *e = s;
        }
    }
    let ms: f64 = first.values().map(|s| s.ms()).sum();
    let events: u64 = Workload::all()
        .into_iter()
        .filter(|w| first.contains_key(w.name()))
        .map(|w| cache.base_chunked(w, opts).total_events() as u64)
        .sum();
    (ms, mev_per_s(events, ms))
}

/// Decodes every chunk of every stream of `traces` under `trace.decode`
/// spans and returns the decode rate in M events/s.
fn decode_all(rec: &Recorder, traces: &[(Workload, Arc<ChunkedTrace>)]) -> f64 {
    let mut events = 0u64;
    let mut ms = 0.0;
    let mut buf = Vec::new();
    for (w, t) in traces {
        let t0 = Instant::now();
        rec.span("trace.decode", None, w.name(), |_| {
            for s in &t.streams {
                for c in 0..s.n_chunks() {
                    s.decode_chunk(c, &mut buf);
                    events += buf.len() as u64;
                }
            }
        });
        ms += 1e3 * t0.elapsed().as_secs_f64();
    }
    mev_per_s(events, ms)
}

/// Shared tail of the traced batch workloads: digest, operations, and
/// per-layer metrics from the fan-out's runs.
fn finish_traced(
    rep: &mut Rep,
    rec: &Recorder,
    cache: &TraceCache,
    opts: BuildOptions,
    runs: &[Result<CellRun, String>],
    plan: &RequestPlan,
) {
    for (pc, run) in plan.cells.iter().zip(runs) {
        let tag = format!("cell:{}", pc.key);
        match run {
            Ok(r) => {
                rep.digest
                    .insert(tag.clone(), cell_value(&r.outcome.result.stats));
                rep.ops.push(Op {
                    tag,
                    ok: true,
                    latency_ms: Some(r.outcome.ms),
                });
            }
            Err(e) => {
                eprintln!("perfbench: cell failed: {e}");
                rep.ops.push(Op {
                    tag,
                    ok: false,
                    latency_ms: None,
                });
            }
        }
    }
    let traces: Vec<(Workload, Arc<ChunkedTrace>)> = Workload::all()
        .into_iter()
        .filter(|w| plan.cells.iter().any(|pc| pc.cell.workload == *w))
        .map(|w| (w, cache.base_chunked(w, opts)))
        .collect();
    let decode = decode_all(rec, &traces);
    rep.metrics.insert("trace.decode_mev_s", decode);
    let spans = rec.spans();
    let ok: Vec<&CellRun> = runs.iter().flatten().collect();
    cell_layer_metrics(&spans, &ok, &mut rep.metrics);
    let (build_ms, build_mev_s) = build_metrics(&spans, cache, opts);
    rep.metrics.insert("workloads.build_ms", build_ms);
    rep.metrics.insert("workloads.build_mev_s", build_mev_s);
    if let Some(cfg) = cache.spill_config() {
        rep.metrics.insert("spill.build_ms", build_ms);
        rep.metrics.insert("spill.spilled_mb", cache.spilled_mb());
        rep.metrics.insert("spill.write_ms", cfg.budget.spill_ms());
        let chunks: usize = traces.iter().map(|(_, t)| t.spilled_chunks()).sum();
        rep.metrics.insert("spill.spilled_chunks", chunks as f64);
    }
    rep.spans = spans;
}

fn matrix_traced(p: &Params) -> Result<Rep, String> {
    let cache = Arc::new(TraceCache::new());
    let opts = opts(MATRIX_SCALE, p.seed);
    let rec = Recorder::new();
    let (t0, _) = timed_start(p);
    let plan = RequestPlan::for_experiments(&Experiment::all(), opts, |_| false);
    let runs = fanout_traced(&rec, &cache, opts, &plan, JOBS);
    let mut r = Repro::with_cache(MATRIX_SCALE, JOBS, Arc::clone(&cache));
    r.seed = p.seed;
    let outcomes: Vec<CellOutcome> = runs.iter().flatten().map(|c| c.outcome.clone()).collect();
    r.absorb_outcomes(outcomes);
    let mut rep = Rep::default();
    render_matrix(&mut rep, &mut r, Some(&rec));
    rep.metrics.insert("wall_s", t0.elapsed().as_secs_f64());
    finish_traced(&mut rep, &rec, &cache, opts, &runs, &plan);
    rep.metrics.insert(
        "report.render_ms",
        rep.spans
            .iter()
            .filter(|s| s.name == "report.render")
            .map(Span::ms)
            .sum(),
    );
    if runs.iter().all(Result::is_ok) {
        rep.scorecard = Some(r.scorecard().passed());
    }
    rep.metrics
        .insert("report.scorecard_pass", rep.scorecard.unwrap_or(0) as f64);
    Ok(rep)
}

/// The one `spill` cell.
fn spill_cells() -> Vec<Cell> {
    vec![Cell::system(Workload::Trfd4, System::Base)]
}

/// A `TraceCache` governed by the `spill` budget.
fn spill_cache() -> TraceCache {
    let cache = TraceCache::new();
    cache.set_spill(SPILL_BUDGET_MB, None);
    cache
}

/// Fails the repetition unless the governed build really spilled: without
/// that, the cell replays from memory with identical results and the
/// workload no longer measures spilled decode.
fn check_spilled(cache: &TraceCache) -> Result<(), String> {
    match cache.spill_config() {
        None => Err("spill is disabled (REPRO_NO_SPILL?)".to_string()),
        Some(_) if cache.spilled_mb() <= 0.0 => Err("nothing was spilled".to_string()),
        Some(_) => Ok(()),
    }
}

/// Runs the `spill` cell through the supervised runner on one worker and
/// reports end-to-end metrics, the operation, and the digest.
fn spill(p: &Params) -> Result<Rep, String> {
    let cache = spill_cache();
    let opts = opts(SPILL_SCALE, p.seed);
    let cells = spill_cells();
    let (t0, setup_s) = timed_start(p);
    let report = run_cells_supervised(&cache, opts, &cells, 1, &RunPolicy::fail_fast(), None);
    let wall = t0.elapsed();
    check_spilled(&cache)?;
    let mut rep = Rep::default();
    let events = base_events(&cache);
    let mut fed = 0;
    let mut timed = Vec::new();
    for (cell, slot) in cells.iter().zip(&report.outcomes) {
        let tag = format!("cell:{}", cell.key());
        match slot {
            Ok(o) => {
                fed += events.get(&cell.workload).copied().unwrap_or(0);
                timed.push((
                    o.ms,
                    deduplicated(o.phases.cached, o.prepare_ms, o.journaled),
                ));
                rep.digest.insert(tag.clone(), cell_value(&o.result.stats));
                rep.ops.push(Op {
                    tag,
                    ok: true,
                    latency_ms: Some(o.ms),
                });
            }
            Err(f) => {
                eprintln!("perfbench: cell failed: {f}");
                rep.ops.push(Op {
                    tag,
                    ok: false,
                    latency_ms: None,
                });
            }
        }
    }
    batch_metrics(&mut rep, setup_s, wall, fed);
    runner_metrics(&mut rep, report.jobs, report.wall_ms, &timed);
    Ok(rep)
}

fn spill_traced(p: &Params) -> Result<Rep, String> {
    let cache = spill_cache();
    let opts = opts(SPILL_SCALE, p.seed);
    let rec = Recorder::new();
    let (t0, _) = timed_start(p);
    let plan = RequestPlan::from_cells(&spill_cells(), opts);
    let runs = fanout_traced(&rec, &cache, opts, &plan, 1);
    let mut rep = Rep::default();
    rep.metrics.insert("wall_s", t0.elapsed().as_secs_f64());
    check_spilled(&cache)?;
    finish_traced(&mut rep, &rec, &cache, opts, &runs, &plan);
    Ok(rep)
}

// ---------------------------------------------------------------------------
// service
// ---------------------------------------------------------------------------

/// The outcome of one request as a client saw it.
struct RequestResult {
    experiment: Experiment,
    latency_ms: f64,
    /// The terminal report, or `None` when the request was rejected.
    report: Option<RequestReport>,
}

/// The seeded request sequence of client `c`.
fn client_mix(seed: u64, c: usize, n: usize) -> Vec<Experiment> {
    let mut rng = SmallRng::seed_from_u64(seed ^ (0x9e37_79b9 * (c as u64 + 1)));
    (0..n)
        .map(|_| SERVICE_MIX[(rng.next_u64() % SERVICE_MIX.len() as u64) as usize])
        .collect()
}

fn run_request(client: &str, e: Experiment) -> RunRequest {
    RunRequest {
        client: client.to_string(),
        experiments: vec![e],
        deadline_ms: None,
    }
}

/// A closed-loop client on the service's Unix socket. It blocks in `read`
/// until [`SocketClient::start_polling`].
struct SocketClient {
    name: String,
    stream: UnixStream,
    /// Bytes received and not yet consumed as a line.
    buf: Vec<u8>,
}

impl SocketClient {
    fn connect(path: &Path, name: String) -> Result<SocketClient, String> {
        let deadline = Instant::now() + Duration::from_secs(10);
        let stream = loop {
            match UnixStream::connect(path) {
                Ok(s) => break s,
                Err(e) if Instant::now() > deadline => return Err(format!("connect: {e}")),
                Err(_) => std::thread::sleep(Duration::from_millis(5)),
            }
        };
        Ok(SocketClient {
            name,
            stream,
            buf: Vec::new(),
        })
    }

    /// From now on polls the socket, yielding the core between polls, rather
    /// than sleeping in `read`: a reply is seen as soon as it arrives, so the
    /// latency is the server's and not the wake-up delay of the client's own
    /// thread, which on a shared 2-core VM grows several-fold with the
    /// host's load. The polling keeps a core busy, so the warm-up, which
    /// simulates on both cores, blocks.
    fn start_polling(&self) -> Result<(), String> {
        self.stream.set_nonblocking(true).map_err(|e| e.to_string())
    }

    /// Calls `op` until it stops reporting that it would block.
    fn poll<T>(mut op: impl FnMut() -> std::io::Result<T>) -> Result<T, String> {
        loop {
            match op() {
                Ok(v) => return Ok(v),
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {
                    std::thread::yield_now()
                }
                Err(e) => return Err(e.to_string()),
            }
        }
    }

    /// The next reply line, without its newline.
    fn read_line(&mut self) -> Result<String, String> {
        loop {
            if let Some(n) = self.buf.iter().position(|&b| b == b'\n') {
                let line: Vec<u8> = self.buf.drain(..=n).collect();
                return String::from_utf8(line)
                    .map(|l| l.trim_end().to_string())
                    .map_err(|e| e.to_string());
            }
            let mut chunk = [0u8; 4096];
            let stream = &mut self.stream;
            match Self::poll(|| stream.read(&mut chunk))? {
                0 => return Err("service closed the connection".to_string()),
                n => self.buf.extend_from_slice(&chunk[..n]),
            }
        }
    }

    /// Sends one request and reads replies until its terminal line.
    fn request(&mut self, e: Experiment) -> Result<RequestResult, String> {
        let t0 = Instant::now();
        let line = run_request_line(&run_request(&self.name, e)) + "\n";
        let mut sent = 0;
        while sent < line.len() {
            let stream = &mut self.stream;
            match Self::poll(|| stream.write(&line.as_bytes()[sent..]))? {
                0 => return Err("service closed the connection".to_string()),
                n => sent += n,
            }
        }
        let report = loop {
            match parse_reply(&self.read_line()?)? {
                Reply::Done(rep) => break Some(rep),
                Reply::Rejected { .. } => break None,
                Reply::Error(msg) => return Err(msg),
                _ => {}
            }
        };
        Ok(RequestResult {
            experiment: e,
            latency_ms: 1e3 * t0.elapsed().as_secs_f64(),
            report,
        })
    }
}

/// Submits one request in-process with spans around the service layer's
/// calls: admission, the wait for the first cell, and the reply codec.
fn request_traced(
    rec: &Recorder,
    server: &Server,
    client: &str,
    e: Experiment,
    tag: &str,
) -> RequestResult {
    let t0 = Instant::now();
    let report = rec.span("service.request", None, tag, |id| {
        let admission = rec.span("service.submit", Some(id), tag, |_| {
            server.submit(run_request(client, e))
        });
        let Admission::Accepted { events, .. } = admission else {
            return None;
        };
        let mut next = rec.span("service.queue_wait", Some(id), tag, |_| events.recv().ok());
        let done = loop {
            match next {
                Some(Event::Done(rep)) => break rep,
                Some(Event::Cell(_)) => next = events.recv().ok(),
                None => return None,
            }
        };
        rec.span("service.codec", Some(id), tag, |_| {
            match parse_reply(&reply_line(&Reply::Done(done))) {
                Ok(Reply::Done(rep)) => Some(rep),
                _ => None,
            }
        })
    });
    RequestResult {
        experiment: e,
        latency_ms: 1e3 * t0.elapsed().as_secs_f64(),
        report,
    }
}

/// In-process renders of the mix from the journal the service wrote, plus
/// the journal layer's per-call costs when traced.
fn reference_renders(
    journal_path: &Path,
    opts: BuildOptions,
    rec: Option<&Recorder>,
    rep: &mut Rep,
) -> Result<HashMap<Experiment, String>, String> {
    let header = JournalHeader::new(&opts);
    let timed = |name: &'static str, tag: &str, f: &mut dyn FnMut()| match rec {
        Some(rec) => rec.span(name, None, tag, |_| f()),
        None => f(),
    };
    let mut journal = None;
    timed("journal.resume", "", &mut || {
        journal = Some(Journal::resume(journal_path, header))
    });
    let journal = journal.expect("resume ran").map_err(|e| e.to_string())?;
    let plan = RequestPlan::for_experiments(&SERVICE_MIX, opts, |_| false);
    let mut records = Vec::new();
    for pc in &plan.cells {
        let mut stats = None;
        timed("journal.lookup", &pc.key, &mut || {
            stats = journal.lookup(pc.digest)
        });
        let stats = stats.ok_or_else(|| format!("{} missing from the journal", pc.key))?;
        rep.digest
            .insert(format!("cell:{}", pc.key), cell_value(&stats));
        records.push((pc, stats));
    }
    if rec.is_some() {
        let copy = journal_path.with_extension("copy");
        let fresh = Journal::create(&copy, header)
            .and_then(Journal::into_append)
            .map_err(|e| e.to_string())?;
        for (pc, stats) in &records {
            let record = JournalRecord {
                digest: pc.digest,
                key: pc.key.clone(),
                attempt: 0,
                ms: 0.0,
                stats: stats.clone(),
            };
            let mut res = Ok(());
            timed("journal.append", &pc.key, &mut || {
                res = fresh.append(record.clone())
            });
            res.map_err(|e| e.to_string())?;
        }
    }
    let mut r = Repro::with_jobs(opts.scale, 1);
    r.absorb_outcomes(records.into_iter().map(|(pc, stats)| CellOutcome {
        cell: pc.cell.clone(),
        result: RunResult {
            stats,
            spec: pc.cell.spec,
            geometry: pc.cell.geometry,
        },
        ms: 0.0,
        build_ms: 0.0,
        prepare_ms: 0.0,
        sim_ms: 0.0,
        phases: PrepPhases::default(),
        decode_ms: 0.0,
        prefetch_hits: 0,
        spilled_mb: 0.0,
        spill_ms: 0.0,
        sched_order: 0,
        attempt: 0,
        journaled: true,
    }));
    let mut renders = HashMap::new();
    for e in SERVICE_MIX {
        let mut text = String::new();
        timed("report.render", e.name(), &mut || {
            text = render_experiment(&mut r, e)
        });
        rep.digest
            .insert(format!("report:{}", e.name()), report_value(&text));
        renders.insert(e, text);
    }
    Ok(renders)
}

fn service(p: &Params, traced: bool) -> Result<Rep, String> {
    let dir = Path::new(TMP_DIR).join(format!("service-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let out = service_in(p, traced, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    out
}

fn service_in(p: &Params, traced: bool, dir: &Path) -> Result<Rep, String> {
    let opts = BuildOptions {
        scale: SERVICE_SCALE,
        ..Default::default()
    };
    let journal_path = dir.join("journal.jsonl");
    let sock = dir.join("s.sock");
    let journal = Journal::create(&journal_path, JournalHeader::new(&opts))
        .and_then(Journal::into_append)
        .map_err(|e| e.to_string())?;
    let cfg = ServiceConfig {
        scale: SERVICE_SCALE,
        jobs: JOBS,
        ..Default::default()
    };
    let server = Server::start(cfg, Some(journal));
    let rec = Recorder::new();
    let stop = AtomicBool::new(false);
    let per_client = SERVICE_REQUESTS / CLIENTS;
    let mut warm_s = 0.0;
    let mut wall_s = 0.0;
    let mut setup_s = 0.0;
    let replies: Result<Vec<RequestResult>, String> = std::thread::scope(|s| {
        let serve = (!traced).then(|| s.spawn(|| serve_unix(&server, &sock, &stop)));
        let result = (|| {
            let mut clients = Vec::new();
            if !traced {
                for c in 0..CLIENTS {
                    clients.push(SocketClient::connect(&sock, format!("client{c}"))?);
                }
            }
            let tw = Instant::now();
            for e in SERVICE_MIX {
                let reply = match clients.first_mut() {
                    Some(client) => client.request(e)?,
                    None => request_traced(&rec, &server, "client0", e, "warmup"),
                };
                if !reply.report.as_ref().is_some_and(RequestReport::complete) {
                    return Err(format!("warm-up request {} failed", e.name()));
                }
            }
            warm_s = tw.elapsed().as_secs_f64();
            for client in &clients {
                client.start_polling()?;
            }
            let (t0, setup) = timed_start(p);
            setup_s = setup;
            let replies: Vec<Vec<RequestResult>> = std::thread::scope(|cs| {
                let handles: Vec<_> = if traced {
                    (0..CLIENTS)
                        .map(|c| {
                            let (rec, server) = (&rec, &server);
                            cs.spawn(move || {
                                let name = format!("client{c}");
                                client_mix(p.seed, c, per_client)
                                    .into_iter()
                                    .enumerate()
                                    .map(|(i, e)| {
                                        request_traced(rec, server, &name, e, &format!("{c}.{i}"))
                                    })
                                    .collect::<Vec<_>>()
                            })
                        })
                        .collect()
                } else {
                    clients
                        .iter_mut()
                        .enumerate()
                        .map(|(c, client)| {
                            cs.spawn(move || {
                                client_mix(p.seed, c, per_client)
                                    .into_iter()
                                    .map(|e| {
                                        client.request(e).unwrap_or_else(|err| {
                                            eprintln!("perfbench: request failed: {err}");
                                            RequestResult {
                                                experiment: e,
                                                latency_ms: f64::NAN,
                                                report: None,
                                            }
                                        })
                                    })
                                    .collect::<Vec<_>>()
                            })
                        })
                        .collect()
                };
                handles
                    .into_iter()
                    .map(|h| h.join().expect("client thread panicked"))
                    .collect()
            });
            wall_s = t0.elapsed().as_secs_f64();
            Ok(replies.into_iter().flatten().collect())
        })();
        stop.store(true, Ordering::SeqCst);
        if let Some(h) = serve {
            let _ = h.join().expect("serve thread panicked");
        }
        result
    });
    server.stop();
    let peak = peak_rss();
    let replies = replies?;
    let mut rep = Rep::default();
    let renders = reference_renders(&journal_path, opts, traced.then_some(&rec), &mut rep)?;
    for r in &replies {
        let ok = r
            .report
            .as_ref()
            .is_some_and(|rr| rr.complete() && renders.get(&r.experiment) == Some(&rr.report));
        rep.ops.push(Op {
            tag: format!("report:{}", r.experiment.name()),
            ok,
            latency_ms: Some(r.latency_ms).filter(|l| l.is_finite()),
        });
    }
    rep.metrics.insert("wall_s", wall_s);
    if traced {
        service_layer_metrics(&mut rep, &rec, &replies);
        return Ok(rep);
    }
    rep.metrics.insert("setup_s", setup_s);
    rep.metrics.insert("peak_rss_mb", peak);
    // The warm-up fed every distinct cell of the mix to a machine once;
    // count its base-trace events (built here, after the RSS reading).
    let plan = RequestPlan::for_experiments(&SERVICE_MIX, opts, |_| false);
    let events: HashMap<Workload, u64> = Workload::all()
        .into_iter()
        .map(|w| (w, build_chunked(w, opts).total_events() as u64))
        .collect();
    rep.metrics.insert(
        "sim_mev_s",
        plan_events(&plan, &events) as f64 / 1e6 / warm_s,
    );
    Ok(rep)
}

fn service_layer_metrics(rep: &mut Rep, rec: &Recorder, replies: &[RequestResult]) {
    let spans = rec.spans();
    let mean_ms = |name: &str| -> f64 {
        let v: Vec<f64> = spans
            .iter()
            .filter(|s| s.name == name && s.tag != "warmup")
            .map(Span::ms)
            .collect();
        v.iter().sum::<f64>() / v.len().max(1) as f64
    };
    rep.metrics
        .insert("service.admit_us", 1e3 * mean_ms("service.submit"));
    rep.metrics
        .insert("service.queue_wait_ms", mean_ms("service.queue_wait"));
    rep.metrics
        .insert("service.codec_us", 1e3 * mean_ms("service.codec"));
    let (hits, total) = replies
        .iter()
        .filter_map(|r| r.report.as_ref())
        .fold((0, 0), |(h, t), r| (h + r.journal_hits, t + r.total));
    rep.metrics.insert(
        "service.journal_hit_ratio",
        hits as f64 / total.max(1) as f64,
    );
    rep.metrics
        .insert("journal.append_us", 1e3 * mean_ms("journal.append"));
    rep.metrics
        .insert("journal.lookup_us", 1e3 * mean_ms("journal.lookup"));
    rep.metrics
        .insert("journal.resume_ms", mean_ms("journal.resume"));
    rep.metrics.insert(
        "report.render_ms",
        spans
            .iter()
            .filter(|s| s.name == "report.render")
            .map(Span::ms)
            .sum(),
    );
    rep.spans = spans;
}
