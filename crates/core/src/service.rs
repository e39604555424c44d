//! The resident experiment service (DESIGN.md §14).
//!
//! A [`Server`] keeps one [`TraceCache`], one supervised worker pool, and
//! (optionally) one run [`Journal`] resident, and accepts
//! experiment requests from many concurrent clients. Robustness is the
//! point:
//!
//! * **Admission control** — the queue of undispatched cells is bounded;
//!   a request that would exceed it is rejected with
//!   [`Admission::Overloaded`] instead of being buffered without limit.
//! * **Fairness** — the pool runs on the crate's one cell dispatcher (the
//!   one `repro` runs a single request on): cells are dispatched
//!   round-robin across *clients*, FIFO across each client's requests,
//!   and longest-first within a request ([`crate::dispatch_order`]), so
//!   one client submitting a large sweep cannot starve another's single
//!   table.
//! * **Cooperative cancellation** — every request carries a live
//!   [`CancelToken`] threaded into the simulator's event loop. A
//!   per-request deadline, a vanished client, or nothing at all: when the
//!   token trips, in-flight cells die as [`FailureCause::Timeout`] within
//!   the machine's polling latency and queued cells never start.
//! * **Graceful degradation** — [`Server::shutdown`] drains: in-flight
//!   cells finish and are journaled, queued cells stop, requests that had
//!   not started are answered `shutting-down`, and partially-run requests
//!   still stream back every experiment whose cells completed (the
//!   `--keep-going` report machinery).
//!
//! Requests are deduplicated against all prior work by the build-stable
//! [`CellFingerprint`](crate::CellFingerprint) digest: the journal replays
//! cells any earlier request (or an earlier daemon life) already
//! simulated, and identical in-flight fingerprints share one result via
//! the cache. The wire protocol is newline-delimited JSON (one value per
//! line) over a Unix or TCP socket — see [`parse_request`] /
//! [`parse_reply`] for both directions. Each request and reply type names
//! its fields once, in one field list that the crate's one JSON codec
//! renders and parses from (the journal's codec, `crate::json`).
//!
//! Determinism: the service schedules whole cells onto the same
//! single-threaded simulation the CLI runs, and reports are rendered by
//! [`render_experiment`] from the same outcomes — a request's report is
//! byte-identical to `repro` printing the same experiments.

use crate::experiments::{render_experiment, Repro};
use crate::json::{self, object, Codec, Fields, Json, Obj, Opt, OrDefault, Plain, Tenths};
use crate::runner::{
    attempt_of, default_jobs, CellOutcome, Experiment, Job, Req, RequestPlan, Sched, Slot,
    SuperviseCtx, TraceCache,
};
use crate::supervise::{
    lock_tolerant, CellFailure, FailureCause, FailureReport, Journal, Overrun, RunPolicy,
};
use oscache_memsys::CancelToken;
use oscache_workloads::BuildOptions;
use std::io::{Read, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How a [`Server`] is provisioned.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Trace scale every request is built at (requests do not choose —
    /// one resident cache serves one scale, like one CLI invocation).
    pub scale: f64,
    /// Worker threads (`0` = one per hardware thread).
    pub jobs: usize,
    /// Admission bound: maximum *undispatched* cells across all admitted
    /// requests. A request whose plan would push the queue past this is
    /// rejected [`Admission::Overloaded`].
    pub queue_limit: usize,
    /// Per-cell supervision policy (retries, soft deadline, escalation).
    pub policy: RunPolicy,
    /// Memory budget for the spill-under-pressure governor, in MiB
    /// (`--mem-budget-mb`). `None` keeps every trace resident.
    pub mem_budget_mb: Option<u64>,
    /// Deterministic disk-fault injection for the spill write path
    /// (`--inject-io`); only meaningful with `mem_budget_mb` set.
    pub fault_plan: Option<oscache_trace::IoFaultPlan>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            scale: 1.0,
            jobs: 0,
            queue_limit: 256,
            policy: RunPolicy::fail_fast(),
            mem_budget_mb: None,
            fault_plan: None,
        }
    }
}

/// One client request: render these experiments, optionally within a
/// deadline.
#[derive(Clone, Debug)]
pub struct RunRequest {
    /// Client identity for fair scheduling (requests from the same client
    /// are FIFO; distinct clients round-robin).
    pub client: String,
    /// Experiments to render, in reply order.
    pub experiments: Vec<Experiment>,
    /// Optional wall-clock budget: when it expires the request's token
    /// trips and every unfinished cell fails as
    /// [`FailureCause::Timeout`].
    pub deadline_ms: Option<u64>,
}

/// A request line without a `client` is the anonymous client's.
impl Default for RunRequest {
    fn default() -> Self {
        RunRequest {
            client: "anon".to_string(),
            experiments: Vec::new(),
            deadline_ms: None,
        }
    }
}

/// Per-cell progress streamed back while a request runs.
#[derive(Clone, Debug, Default)]
pub struct CellProgress {
    /// Cell index within the request's plan.
    pub index: usize,
    /// Total cells in the plan.
    pub total: usize,
    /// The cell's run key.
    pub key: String,
    /// Whether the cell completed (false: a typed failure filled its slot).
    pub ok: bool,
    /// Worker wall-clock milliseconds spent on the cell.
    pub ms: f64,
    /// True when the result was replayed from the journal, not simulated.
    pub journaled: bool,
}

/// The terminal reply for one request.
#[derive(Clone, Debug, Default)]
pub struct RequestReport {
    /// Request id assigned at admission.
    pub id: u64,
    /// Cells in the request's plan.
    pub total: usize,
    /// Cells that completed (simulated, shared, or journal-replayed).
    pub completed: usize,
    /// Cells that failed after supervision (including deadline kills).
    pub failed: usize,
    /// Cells never started (daemon drained, or client vanished).
    pub unstarted: usize,
    /// Completed cells that were journal replays.
    pub journal_hits: usize,
    /// True when the request's deadline tripped its token.
    pub deadline_exceeded: bool,
    /// True when the daemon began draining before this request started
    /// any cell (the wire reply is `shutting-down`).
    pub shutdown: bool,
    /// The rendered experiments, byte-identical to the CLI printing the
    /// same (completed) experiments.
    pub report: String,
    /// Experiment names skipped because not all of their cells completed.
    pub skipped: Vec<String>,
    /// The failed cells, in cell order.
    pub failures: Vec<FailureReport>,
}

impl RequestReport {
    /// True when every cell completed and every experiment rendered.
    pub fn complete(&self) -> bool {
        self.failed == 0 && self.unstarted == 0 && !self.shutdown
    }
}

/// What happens to a request at the admission gate.
pub enum Admission {
    /// Admitted: progress and the terminal report arrive on `events`.
    Accepted {
        /// Request id (quote it in progress lines and cancellations).
        id: u64,
        /// Cells in the request's plan, resolved at admission or run.
        total: usize,
        /// One [`Event::Cell`] per processed cell, then exactly one
        /// [`Event::Done`].
        events: Receiver<Event>,
    },
    /// The bounded admission queue is full; retry later.
    Overloaded {
        /// Undispatched cells currently queued.
        queued: usize,
        /// The configured bound.
        limit: usize,
    },
    /// The daemon is draining and accepts no new work.
    ShuttingDown,
}

/// One message on an admitted request's event stream.
pub enum Event {
    /// A cell of the request was processed (completed or failed).
    Cell(CellProgress),
    /// The request is finished; no further events follow.
    Done(RequestReport),
}

/// Counters the `stats` op exposes — the observable proof of
/// cross-request deduplication (trace builds and journal replays do not
/// grow with concurrent identical requests).
#[derive(Clone, Debug, Default)]
pub struct ServiceStats {
    /// Requests presented to the admission gate.
    pub submitted: u64,
    /// Requests admitted.
    pub accepted: u64,
    /// Requests rejected `overloaded`.
    pub rejected_overloaded: u64,
    /// Requests rejected `shutting-down`.
    pub rejected_shutdown: u64,
    /// Requests finished (reported).
    pub finished: u64,
    /// Cells completed across all requests.
    pub cells_completed: u64,
    /// Cells failed across all requests.
    pub cells_failed: u64,
    /// Cells replayed from the journal instead of simulated.
    pub journal_replays: u64,
    /// Retry attempts granted by the supervision policy.
    pub retries: u64,
    /// Cell attempts that ran past the policy's soft deadline.
    pub overruns: u64,
    /// Requests currently admitted and unfinished.
    pub active_requests: usize,
    /// Cells admitted but not yet dispatched.
    pub queued_cells: usize,
    /// True once draining began.
    pub draining: bool,
    /// Workload traces built since the daemon started (deduplication:
    /// stays at the distinct-workload count no matter how many requests
    /// need them).
    pub trace_builds: usize,
    /// Distinct base traces resident in the cache.
    pub base_traces: usize,
    /// Distinct geometry-independent analyses in the cache
    /// ([`TraceCache::analyzed_len`]). Prepared cells themselves are not
    /// cached; the field keeps its wire name `prepared_cells`.
    pub prepared_cells: usize,
    /// The daemon's peak resident set size in MiB (`VmHWM` from
    /// `/proc/self/status`; 0 where /proc is unavailable).
    pub peak_rss_mb: f64,
    /// MiB of sealed chunks the memory-budget governor has spilled to
    /// disk (zero without `mem_budget_mb`).
    pub spilled_mb: f64,
}

/// The process's peak resident set size in MiB, read from
/// `/proc/self/status` `VmHWM` (the kernel's monotone high-water mark).
/// `None` where `/proc` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Why a request's remaining cells are being abandoned.
#[derive(Clone, Copy, PartialEq, Eq)]
enum CancelKind {
    /// The request's deadline expired: trip the token, fail the rest as
    /// [`FailureCause::Timeout`].
    Deadline,
    /// The client's connection died: trip the token, drop the rest.
    ClientGone,
    /// The daemon is draining: let in-flight cells finish, never start
    /// the rest.
    Drain,
}

/// What the daemon tracks per admitted request besides its dispatch state.
struct Watch {
    experiments: Vec<Experiment>,
    deadline: Option<Instant>,
    deadline_hit: bool,
    orphaned: bool,
    drained: bool,
    tx: Sender<Event>,
}

/// Everything under the one service lock: the dispatcher and the drain.
struct State {
    sched: Sched<Watch>,
    draining: bool,
    stopped: bool,
    next_id: u64,
    /// Requests removed from the dispatcher whose report is still to be
    /// rendered and sent: filled under the lock, emptied by
    /// [`Inner::release`] once it is dropped.
    retired: Vec<Req<Watch>>,
}

/// Monotonic counters (lock-free reads for the `stats` op).
#[derive(Default)]
struct Counters {
    submitted: AtomicU64,
    accepted: AtomicU64,
    rejected_overloaded: AtomicU64,
    rejected_shutdown: AtomicU64,
    finished: AtomicU64,
    cells_completed: AtomicU64,
    cells_failed: AtomicU64,
    journal_replays: AtomicU64,
    retries: AtomicU64,
    overruns: AtomicU64,
}

impl Counters {
    /// Counts one processed cell: resolved at admission, or run.
    fn count_cell(&self, out: &Result<CellOutcome, CellFailure>) {
        let bump = |n: &AtomicU64, by: u64| n.fetch_add(by, Ordering::Relaxed);
        bump(&self.retries, u64::from(attempt_of(out)));
        match out {
            Ok(o) => {
                bump(&self.cells_completed, 1);
                bump(&self.journal_replays, u64::from(o.journaled));
            }
            Err(_) => {
                bump(&self.cells_failed, 1);
            }
        }
    }
}

struct Inner {
    opts: BuildOptions,
    queue_limit: usize,
    policy: RunPolicy,
    cache: Arc<TraceCache>,
    journal: Option<Journal>,
    state: Mutex<State>,
    cv: Condvar,
    counters: Counters,
    journal_errors: Mutex<Vec<String>>,
}

/// The resident experiment service. [`Server::start`] spawns the worker
/// pool and deadline monitor; [`Server::submit`] admits requests
/// in-process (the socket layer — [`serve_unix`]/[`serve_tcp`] — is a
/// thin translation onto it, so everything is testable without sockets);
/// [`Server::shutdown`] drains; [`Server::stop`] drains and joins.
pub struct Server {
    inner: Arc<Inner>,
    threads: Mutex<Vec<JoinHandle<()>>>,
}

impl Server {
    /// Provisions the cache, worker pool, and deadline monitor.
    /// `journal` makes results persistent and deduplicates across daemon
    /// restarts.
    pub fn start(cfg: ServiceConfig, journal: Option<Journal>) -> Server {
        let jobs = if cfg.jobs == 0 {
            default_jobs()
        } else {
            cfg.jobs
        };
        let inner = Arc::new(Inner {
            opts: BuildOptions {
                scale: cfg.scale,
                ..Default::default()
            },
            queue_limit: cfg.queue_limit,
            policy: cfg.policy,
            cache: {
                let cache = Arc::new(TraceCache::new());
                if let Some(mb) = cfg.mem_budget_mb {
                    cache.set_spill(mb, cfg.fault_plan);
                }
                cache
            },
            journal,
            state: Mutex::new(State {
                sched: Sched::new(Vec::new()),
                draining: false,
                stopped: false,
                next_id: 1,
                retired: Vec::new(),
            }),
            cv: Condvar::new(),
            counters: Counters::default(),
            journal_errors: Mutex::new(Vec::new()),
        });
        let mut threads = Vec::with_capacity(jobs + 1);
        for _ in 0..jobs {
            let inner = Arc::clone(&inner);
            threads.push(std::thread::spawn(move || inner.worker_loop()));
        }
        {
            let inner = Arc::clone(&inner);
            threads.push(std::thread::spawn(move || inner.monitor_loop()));
        }
        Server {
            inner,
            threads: Mutex::new(threads),
        }
    }

    /// Admits (or rejects) one request. On admission the caller receives
    /// the event stream; dropping the receiver counts as the client
    /// vanishing and cancels the request's remaining work.
    ///
    /// Every planned cell the daemon already holds — its journal record,
    /// or on a daemon without a journal the results cache — is resolved
    /// here, before anything is queued: its slot is filled and its
    /// progress event sent, and it never counts toward `queued_cells` or
    /// reaches a worker. A request with nothing left finalizes in the
    /// calling thread, so its whole event stream is waiting on return.
    pub fn submit(&self, req: RunRequest) -> Admission {
        let inner = &self.inner;
        let c = &inner.counters;
        c.submitted.fetch_add(1, Ordering::Relaxed);
        let plan = RequestPlan::for_experiments(&req.experiments, inner.opts, |_| false);
        let (tx, events) = channel();
        let watch = Watch {
            experiments: req.experiments,
            deadline: req
                .deadline_ms
                .map(|ms| Instant::now() + Duration::from_millis(ms)),
            deadline_hit: false,
            orphaned: false,
            drained: false,
            tx,
        };
        let client = if req.client.is_empty() {
            "anon".to_string()
        } else {
            req.client
        };
        let mut r = inner
            .ctx()
            .admit(client, Arc::new(plan), CancelToken::new(), watch);
        let mut s = lock_tolerant(&inner.state);
        if s.draining || s.stopped {
            c.rejected_shutdown.fetch_add(1, Ordering::Relaxed);
            return Admission::ShuttingDown;
        }
        let queued = s.sched.queued();
        if queued + r.todo.len() > inner.queue_limit {
            c.rejected_overloaded.fetch_add(1, Ordering::Relaxed);
            return Admission::Overloaded {
                queued,
                limit: inner.queue_limit,
            };
        }
        r.id = s.next_id;
        s.next_id += 1;
        for (cidx, slot) in r.slots.iter().enumerate() {
            if let Some(out) = slot {
                c.count_cell(out);
                // The receiver is still in hand here, so the send succeeds.
                let _ = r.ext.tx.send(progress(&r.plan, cidx, slot));
            }
        }
        c.accepted.fetch_add(1, Ordering::Relaxed);
        let (id, total) = (r.id, r.plan.len());
        if r.todo.is_empty() {
            s.retired.push(r);
        } else {
            s.sched.requests.push(r);
        }
        inner.release(s);
        Admission::Accepted { id, total, events }
    }

    /// Cancels an admitted request (client vanished): trips its token so
    /// in-flight cells die within the polling latency, and abandons the
    /// queued rest.
    pub fn cancel(&self, id: u64) {
        let mut s = lock_tolerant(&self.inner.state);
        if let Some(pos) = s.sched.requests.iter().position(|r| r.id == id) {
            self.inner
                .cancel_locked(&mut s, pos, CancelKind::ClientGone);
        }
        self.inner.release(s);
    }

    /// Begins the graceful drain: no new admissions, no new dispatches;
    /// in-flight cells finish (and are journaled); requests that never
    /// started are answered `shutting-down`; started requests finalize as
    /// partial the moment their in-flight cells land. Idempotent.
    pub fn shutdown(&self) {
        let mut s = lock_tolerant(&self.inner.state);
        if s.draining {
            return;
        }
        s.draining = true;
        for pos in (0..s.sched.requests.len()).rev() {
            self.inner.cancel_locked(&mut s, pos, CancelKind::Drain);
        }
        self.inner.release(s);
    }

    /// Drains, waits for every admitted request to finalize, and joins
    /// the worker pool. Idempotent; also runs on drop.
    pub fn stop(&self) {
        self.shutdown();
        {
            let mut s = lock_tolerant(&self.inner.state);
            while !s.sched.requests.is_empty() {
                s = self
                    .inner
                    .cv
                    .wait(s)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            s.stopped = true;
        }
        self.inner.cv.notify_all();
        let threads: Vec<_> = lock_tolerant(&self.threads).drain(..).collect();
        for t in threads {
            let _ = t.join();
        }
    }

    /// A consistent snapshot of the service counters.
    pub fn stats(&self) -> ServiceStats {
        let inner = &self.inner;
        let c = &inner.counters;
        let (active, queued, draining) = {
            let s = lock_tolerant(&inner.state);
            (s.sched.requests.len(), s.sched.queued(), s.draining)
        };
        ServiceStats {
            submitted: c.submitted.load(Ordering::Relaxed),
            accepted: c.accepted.load(Ordering::Relaxed),
            rejected_overloaded: c.rejected_overloaded.load(Ordering::Relaxed),
            rejected_shutdown: c.rejected_shutdown.load(Ordering::Relaxed),
            finished: c.finished.load(Ordering::Relaxed),
            cells_completed: c.cells_completed.load(Ordering::Relaxed),
            cells_failed: c.cells_failed.load(Ordering::Relaxed),
            journal_replays: c.journal_replays.load(Ordering::Relaxed),
            retries: c.retries.load(Ordering::Relaxed),
            overruns: c.overruns.load(Ordering::Relaxed),
            active_requests: active,
            queued_cells: queued,
            draining,
            trace_builds: inner.cache.build_timings().len(),
            base_traces: inner.cache.base_len(),
            prepared_cells: inner.cache.analyzed_len(),
            peak_rss_mb: peak_rss_mb().unwrap_or(0.0),
            spilled_mb: inner.cache.spilled_mb(),
        }
    }

    /// Journal write errors observed so far (non-fatal; drained).
    pub fn take_journal_errors(&self) -> Vec<String> {
        std::mem::take(&mut lock_tolerant(&self.inner.journal_errors))
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

impl Inner {
    /// The supervision context every cell of the pool runs under.
    fn ctx(&self) -> SuperviseCtx<'_> {
        SuperviseCtx {
            cache: &self.cache,
            opts: self.opts,
            policy: &self.policy,
            journal: self.journal.as_ref(),
            journal_errors: &self.journal_errors,
        }
    }

    /// Worker: the dispatcher's worker loop, claiming cells whenever the
    /// daemon is not draining and ending once it stops.
    fn worker_loop(&self) {
        self.ctx().work(
            || {
                let mut s = lock_tolerant(&self.state);
                loop {
                    if s.stopped {
                        return None;
                    }
                    let job = if s.draining { None } else { s.sched.pick() };
                    if job.is_some() {
                        return job;
                    }
                    s = self.cv.wait(s).unwrap_or_else(PoisonError::into_inner);
                }
            },
            |job, out, overruns| self.complete(job, out, overruns),
        );
    }

    /// Records one processed cell, streams progress, finalizes the
    /// request when it was the last.
    fn complete(&self, job: &Job, out: Result<CellOutcome, CellFailure>, overruns: Vec<Overrun>) {
        let c = &self.counters;
        c.overruns
            .fetch_add(overruns.len() as u64, Ordering::Relaxed);
        c.count_cell(&out);
        let mut s = lock_tolerant(&self.state);
        let Some(pos) = s.sched.record(job, out, overruns) else {
            return;
        };
        let req = &mut s.sched.requests[pos];
        let orphaned = req
            .ext
            .tx
            .send(progress(&req.plan, job.cidx, &req.slots[job.cidx]))
            .is_err();
        if orphaned && !req.ext.orphaned {
            self.cancel_locked(&mut s, pos, CancelKind::ClientGone);
        } else if req.inflight == 0 && req.next >= req.todo.len() {
            self.retire(&mut s, pos);
        }
        self.release(s);
    }

    /// Abandons a request's undispatched cells per `kind`; finalizes
    /// immediately when nothing is in flight.
    fn cancel_locked(&self, s: &mut State, pos: usize, kind: CancelKind) {
        let req = &mut s.sched.requests[pos];
        match kind {
            CancelKind::Deadline => {
                req.cancel.cancel();
                req.ext.deadline_hit = true;
                for &(i, _) in &req.todo[req.next..] {
                    req.slots[i] = Some(Err(CellFailure {
                        cell: req.plan.cells[i].cell.clone(),
                        attempt: 0,
                        cause: FailureCause::Timeout,
                    }));
                }
            }
            CancelKind::ClientGone => {
                req.cancel.cancel();
                req.ext.orphaned = true;
            }
            CancelKind::Drain => {
                req.ext.drained = true;
            }
        }
        req.next = req.todo.len();
        if req.inflight == 0 {
            self.retire(s, pos);
        }
    }

    /// Removes a finished request from the dispatcher; [`Inner::release`]
    /// renders and answers it once the lock is dropped.
    fn retire(&self, s: &mut State, pos: usize) {
        let req = s.sched.requests.remove(pos);
        s.retired.push(req);
    }

    /// Drops the scheduler lock, waking every waiter first, and then
    /// finalizes the requests retired while it was held. Every request
    /// finalizes here, so no report is ever rendered under the lock.
    fn release(&self, mut s: MutexGuard<'_, State>) {
        let retired = std::mem::take(&mut s.retired);
        self.cv.notify_all();
        drop(s);
        for req in retired {
            self.finalize(req);
        }
    }

    /// Renders a retired request's report from the completed cells
    /// (exactly the `--keep-going` machinery: only experiments whose
    /// cells all completed render) and sends [`Event::Done`].
    fn finalize(&self, req: Req<Watch>) {
        let total = req.plan.len();
        let mut ok_outcomes: Vec<CellOutcome> = Vec::new();
        let mut failures: Vec<FailureReport> = Vec::new();
        let mut unstarted = 0usize;
        let mut journal_hits = 0usize;
        for slot in req.slots {
            match slot {
                Some(Ok(o)) => {
                    if o.journaled {
                        journal_hits += 1;
                    }
                    ok_outcomes.push(o);
                }
                Some(Err(f)) => failures.push(FailureReport::from(&f)),
                None => unstarted += 1,
            }
        }
        let completed = ok_outcomes.len();
        let w = req.ext;
        let (report, skipped) = if w.orphaned {
            (String::new(), Vec::new())
        } else {
            let mut r = Repro::with_cache(self.opts.scale, 1, Arc::clone(&self.cache));
            r.absorb_outcomes(ok_outcomes);
            let mut text = String::new();
            let mut skipped = Vec::new();
            for e in &w.experiments {
                if r.experiment_ready(*e) {
                    text.push_str(&render_experiment(&mut r, *e));
                } else {
                    skipped.push(e.name().to_string());
                }
            }
            (text, skipped)
        };
        self.counters.finished.fetch_add(1, Ordering::Relaxed);
        let _ = w.tx.send(Event::Done(RequestReport {
            id: req.id,
            total,
            completed,
            failed: failures.len(),
            unstarted,
            journal_hits,
            deadline_exceeded: w.deadline_hit,
            // Drained before any cell had an outcome or a worker.
            shutdown: w.drained && unstarted == total,
            report,
            skipped,
            failures,
        }));
    }

    /// Deadline monitor: trips expired request tokens, so the acceptance
    /// bound — cancelled within one polling grace of the deadline — holds
    /// without any client cooperation.
    fn monitor_loop(&self) {
        loop {
            let mut s = lock_tolerant(&self.state);
            if s.stopped {
                return;
            }
            let now = Instant::now();
            let mut wake = Duration::from_millis(50);
            let expired: Vec<u64> = s
                .sched
                .requests
                .iter()
                .filter_map(|r| match r.ext.deadline {
                    Some(d) if !r.ext.deadline_hit && d <= now => Some(r.id),
                    Some(d) if !r.ext.deadline_hit => {
                        wake = wake.min(d - now);
                        None
                    }
                    _ => None,
                })
                .collect();
            for id in expired {
                if let Some(pos) = s.sched.requests.iter().position(|r| r.id == id) {
                    self.cancel_locked(&mut s, pos, CancelKind::Deadline);
                }
            }
            if !s.retired.is_empty() {
                self.release(s);
                continue;
            }
            let _ = self
                .cv
                .wait_timeout(s, wake.max(Duration::from_millis(1)))
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// The progress event for a request's processed cell `cidx`.
fn progress(plan: &RequestPlan, cidx: usize, slot: &Slot) -> Event {
    let out = slot.as_ref().expect("progress is sent for a filled slot");
    Event::Cell(CellProgress {
        index: cidx,
        total: plan.len(),
        key: plan.cells[cidx].key.clone(),
        ok: out.is_ok(),
        ms: out.as_ref().map(|o| o.ms).unwrap_or(0.0),
        journaled: out.as_ref().map(|o| o.journaled).unwrap_or(false),
    })
}

// ---------------------------------------------------------------------------
// Wire protocol: newline-delimited JSON, one value per line
// ---------------------------------------------------------------------------

/// A parsed client request line.
pub enum WireRequest {
    /// `{"op":"run",...}` — run experiments, stream the report back.
    Run(RunRequest),
    /// `{"op":"stats"}` — one [`ServiceStats`] snapshot line.
    Stats,
    /// `{"op":"shutdown"}` — begin the graceful drain.
    Shutdown,
}

/// The keys of a request's operation, a reply's kind, and an `error`
/// reply's message.
const OP: &str = "op";
const STATUS: &str = "status";
const MSG: &str = "msg";

/// Experiment names; `all` expands to every experiment in paper order.
struct ExperimentNames;

impl Codec<Vec<Experiment>> for ExperimentNames {
    fn put(v: &Vec<Experiment>, name: &str, w: &mut Obj<'_>) {
        json::put_arr(v, w.key(name), |e, out| json::put_str(e.name(), out));
    }
    fn get(
        found: Result<&Json, String>,
        _: &str,
        into: &mut Vec<Experiment>,
    ) -> Result<(), String> {
        for e in found?.arr()? {
            match e.str()? {
                "all" => into.extend(Experiment::all()),
                name => into.push(
                    Experiment::parse(name)
                        .ok_or_else(|| format!("unknown experiment {name:?}"))?,
                ),
            }
        }
        if into.is_empty() {
            return Err("empty experiment list".to_string());
        }
        Ok(())
    }
}

object!(RunRequest {
    "client" => client: OrDefault<Plain>,
    "experiments" => experiments: ExperimentNames,
    "deadline_ms" => deadline_ms: Opt,
});

/// Parses one request line. `experiments` entries are experiment names
/// (`table1`, `fig6`, ...; `all` expands to every experiment in paper
/// order); `client` and `deadline_ms` are optional.
pub fn parse_request(line: &str) -> Result<WireRequest, String> {
    let v = Json::parse(line)?;
    match v.field(OP)?.str()? {
        "run" => Ok(WireRequest::Run(RunRequest::get_fields(&v)?)),
        "stats" => Ok(WireRequest::Stats),
        "shutdown" => Ok(WireRequest::Shutdown),
        other => Err(format!("unknown op {other:?}")),
    }
}

/// Serializes a [`RunRequest`] as its request line (client side).
pub fn run_request_line(req: &RunRequest) -> String {
    let mut out = String::new();
    let mut w = Obj::open(&mut out);
    json::put_str("run", w.key(OP));
    req.put_fields(&mut w);
    w.close();
    out
}

/// One parsed server reply line.
pub enum Reply {
    /// The request was admitted; progress lines follow.
    Accepted {
        /// Request id.
        id: u64,
        /// Cells the request will run.
        total: usize,
    },
    /// The request was rejected (`overloaded` or `shutting-down`).
    Rejected {
        /// `overloaded` | `shutting-down`.
        status: String,
    },
    /// Per-cell progress.
    Cell(CellProgress),
    /// The terminal report.
    Done(RequestReport),
    /// A [`ServiceStats`] snapshot.
    Stats(ServiceStats),
    /// The request line was malformed.
    Error(String),
}

#[derive(Default)]
struct Admitted {
    id: u64,
    total: usize,
}

object!(Admitted {
    "id" => id,
    "total" => total,
});

object!(CellProgress {
    "index" => index,
    "total" => total,
    "key" => key,
    "ok" => ok,
    "ms" => ms: Tenths,
    "journaled" => journaled,
});

object!(RequestReport {
    "id" => id,
    "total" => total,
    "completed" => completed,
    "failed" => failed,
    "unstarted" => unstarted,
    "journal_hits" => journal_hits,
    "deadline_exceeded" => deadline_exceeded,
    "shutdown" => shutdown,
    "skipped" => skipped,
    "failures" => failures,
    "report" => report,
});

object!(ServiceStats {
    "submitted" => submitted,
    "accepted" => accepted,
    "rejected_overloaded" => rejected_overloaded,
    "rejected_shutdown" => rejected_shutdown,
    "finished" => finished,
    "cells_completed" => cells_completed,
    "cells_failed" => cells_failed,
    "journal_replays" => journal_replays,
    "retries" => retries,
    "overruns" => overruns,
    "active_requests" => active_requests,
    "queued_cells" => queued_cells,
    "draining" => draining,
    "trace_builds" => trace_builds,
    "base_traces" => base_traces,
    "prepared_cells" => prepared_cells,
    // Absent in replies from pre-spill daemons: read as zero rather than
    // failing the whole stats line.
    "peak_rss_mb" => peak_rss_mb: OrDefault<Tenths>,
    "spilled_mb" => spilled_mb: OrDefault<Tenths>,
});

/// Serializes one reply line (server side).
pub fn reply_line(r: &Reply) -> String {
    let mut out = String::new();
    put_reply(r, &mut out);
    out
}

/// Appends one reply line, without its newline, to `out`.
fn put_reply(r: &Reply, out: &mut String) {
    let mut w = Obj::open(out);
    let status = match r {
        Reply::Accepted { .. } => "accepted",
        Reply::Rejected { status } => status,
        Reply::Cell(_) => "cell",
        Reply::Done(_) => "done",
        Reply::Stats(_) => "stats",
        Reply::Error(_) => "error",
    };
    json::put_str(status, w.key(STATUS));
    match r {
        &Reply::Accepted { id, total } => Admitted { id, total }.put_fields(&mut w),
        Reply::Rejected { .. } => {}
        Reply::Cell(p) => p.put_fields(&mut w),
        Reply::Done(rep) => rep.put_fields(&mut w),
        Reply::Stats(st) => st.put_fields(&mut w),
        Reply::Error(msg) => json::put_str(msg, w.key(MSG)),
    }
    w.close();
}

/// Parses one reply line (client side).
pub fn parse_reply(line: &str) -> Result<Reply, String> {
    let v = Json::parse(line)?;
    let status = v.field(STATUS)?.str()?;
    Ok(match status {
        "accepted" => {
            let Admitted { id, total } = Admitted::get_fields(&v)?;
            Reply::Accepted { id, total }
        }
        "overloaded" | "shutting-down" => Reply::Rejected {
            status: status.to_string(),
        },
        "cell" => Reply::Cell(CellProgress::get_fields(&v)?),
        "done" => Reply::Done(RequestReport::get_fields(&v)?),
        "stats" => Reply::Stats(ServiceStats::get_fields(&v)?),
        "error" => Reply::Error(v.field(MSG)?.str()?.to_string()),
        other => return Err(format!("unknown reply status {other:?}")),
    })
}

// ---------------------------------------------------------------------------
// Socket layer
// ---------------------------------------------------------------------------

/// The longest request line a connection may send, newline excluded. A
/// real request is well under a kilobyte; past this cap the connection
/// gets an `error` reply and is closed, so a client that never sends a
/// newline cannot grow the daemon's memory without bound.
pub const MAX_REQUEST_LINE: usize = 1 << 20;

/// Accumulates stream bytes into lines, surviving read timeouts (the
/// serve loops set one so idle connections observe the stop flag).
struct LineReader {
    buf: Vec<u8>,
    pos: usize,
}

impl LineReader {
    fn new() -> Self {
        LineReader {
            buf: Vec::new(),
            pos: 0,
        }
    }

    /// Reads one line; `Ok(None)` on EOF or once `stop` is set while the
    /// connection is idle, and an `InvalidData` error once the pending
    /// line outgrows [`MAX_REQUEST_LINE`].
    fn read_line<S: Read>(
        &mut self,
        s: &mut S,
        stop: &AtomicBool,
    ) -> std::io::Result<Option<String>> {
        loop {
            if let Some(nl) = self.buf[self.pos..].iter().position(|&b| b == b'\n') {
                let line = String::from_utf8_lossy(&self.buf[self.pos..self.pos + nl]).into_owned();
                self.pos += nl + 1;
                return Ok(Some(line));
            }
            self.buf.drain(..self.pos);
            self.pos = 0;
            if self.buf.len() > MAX_REQUEST_LINE {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("request line longer than {MAX_REQUEST_LINE} bytes"),
                ));
            }
            let mut chunk = [0u8; 4096];
            match s.read(&mut chunk) {
                Ok(0) => return Ok(None),
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    if stop.load(Ordering::SeqCst) {
                        return Ok(None);
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

/// Appends one reply line to a write batch.
fn push_reply(batch: &mut String, r: &Reply) {
    put_reply(r, batch);
    batch.push('\n');
}

/// Appends an event's reply line; true for the terminal [`Event::Done`].
fn push_event(batch: &mut String, ev: Event) -> bool {
    match ev {
        Event::Cell(p) => {
            push_reply(batch, &Reply::Cell(p));
            false
        }
        Event::Done(rep) => {
            push_reply(batch, &Reply::Done(rep));
            true
        }
    }
}

/// Writes a batch of reply lines with one `write_all`, and empties it.
fn write_batch<S: Write>(stream: &mut S, batch: &mut String) -> std::io::Result<()> {
    let r = stream
        .write_all(batch.as_bytes())
        .and_then(|()| stream.flush());
    batch.clear();
    r
}

/// Writes one reply line.
fn write_reply<S: Write>(stream: &mut S, r: &Reply) -> std::io::Result<()> {
    let mut batch = String::new();
    push_reply(&mut batch, r);
    write_batch(stream, &mut batch)
}

/// Speaks the wire protocol over one connection: parse request lines,
/// translate onto [`Server::submit`]/[`Server::stats`], stream events
/// back. Replies go out in batches: the `accepted` line together with
/// every event already waiting, then each later event together with
/// whatever queued behind it, one `write_all` per batch — so a request
/// admission answered in full costs one write. A failed write (the client
/// vanished) cancels the in-flight request. The `shutdown` op sets
/// `stop`, which the serve loop watches.
pub fn handle_connection<S: Read + Write>(server: &Server, stream: &mut S, stop: &AtomicBool) {
    let mut reader = LineReader::new();
    loop {
        let line = match reader.read_line(stream, stop) {
            Ok(Some(line)) => line,
            Err(e) if e.kind() == std::io::ErrorKind::InvalidData => {
                let _ = write_reply(stream, &Reply::Error(e.to_string()));
                return;
            }
            Ok(None) | Err(_) => return,
        };
        if line.trim().is_empty() {
            continue;
        }
        let rejected = |status: &str| Reply::Rejected {
            status: status.to_string(),
        };
        let written = match parse_request(&line) {
            Err(msg) => write_reply(stream, &Reply::Error(msg)),
            Ok(WireRequest::Stats) => write_reply(stream, &Reply::Stats(server.stats())),
            Ok(WireRequest::Shutdown) => {
                stop.store(true, Ordering::SeqCst);
                server.shutdown();
                let _ = write_reply(stream, &rejected("shutting-down"));
                return;
            }
            Ok(WireRequest::Run(req)) => match server.submit(req) {
                Admission::Overloaded { .. } => write_reply(stream, &rejected("overloaded")),
                Admission::ShuttingDown => write_reply(stream, &rejected("shutting-down")),
                Admission::Accepted { id, total, events } => {
                    let mut batch = String::new();
                    push_reply(&mut batch, &Reply::Accepted { id, total });
                    let mut done = false;
                    loop {
                        if !done {
                            for ev in events.try_iter() {
                                done = push_event(&mut batch, ev);
                                if done {
                                    break;
                                }
                            }
                        }
                        if write_batch(stream, &mut batch).is_err() {
                            server.cancel(id);
                            return;
                        }
                        if done {
                            break;
                        }
                        // Block for the next event; it opens the next batch.
                        match events.recv() {
                            Ok(ev) => done = push_event(&mut batch, ev),
                            Err(_) => break,
                        }
                    }
                    Ok(())
                }
            },
        };
        if written.is_err() {
            return;
        }
    }
}

/// Serves `server` on a Unix socket at `path` until `stop` is set (by
/// SIGTERM via the caller, or a `shutdown` op), then drains and returns.
/// Connections are handled on their own threads; the function returns
/// only after every connection finished its replies.
pub fn serve_unix(server: &Server, path: &Path, stop: &AtomicBool) -> std::io::Result<()> {
    let _ = std::fs::remove_file(path);
    let listener = std::os::unix::net::UnixListener::bind(path)?;
    listener.set_nonblocking(true)?;
    accept_loop(server, stop, || {
        let (stream, _) = listener.accept()?;
        let _ = stream.set_nonblocking(false);
        let _ = stream.set_read_timeout(Some(Duration::from_millis(250)));
        Ok(stream)
    });
    let _ = std::fs::remove_file(path);
    Ok(())
}

/// [`serve_unix`] over TCP (`addr` like `127.0.0.1:7070`).
pub fn serve_tcp(server: &Server, addr: &str, stop: &AtomicBool) -> std::io::Result<()> {
    let listener = std::net::TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    accept_loop(server, stop, || {
        let (stream, _) = listener.accept()?;
        let _ = stream.set_nonblocking(false);
        let _ = stream.set_read_timeout(Some(Duration::from_millis(250)));
        Ok(stream)
    });
    Ok(())
}

/// The accept loop of both transports: `accept` polls a non-blocking
/// listener and hands back a blocking connection whose reads time out,
/// so its handler observes `stop`. Each connection runs on its own
/// thread until `stop` is set; the server then drains before the
/// connection threads are joined, since their terminal replies require
/// every admitted request to finalize.
fn accept_loop<S: Read + Write + Send>(
    server: &Server,
    stop: &AtomicBool,
    accept: impl Fn() -> std::io::Result<S>,
) {
    std::thread::scope(|scope| {
        while !stop.load(Ordering::SeqCst) {
            match accept() {
                Ok(mut stream) => {
                    scope.spawn(move || handle_connection(server, &mut stream, stop));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(20));
                }
                Err(_) => break,
            }
        }
        server.shutdown();
    });
}
