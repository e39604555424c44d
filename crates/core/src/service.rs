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
//! * **Fairness** — cells are dispatched round-robin across *clients*
//!   (FIFO across each client's requests), so one client submitting a
//!   large sweep cannot starve another's single table.
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
//! [`parse_reply`] for both directions, hand-rolled on the journal's
//! dependency-free codec.
//!
//! Determinism: the service schedules whole cells onto the same
//! single-threaded simulation the CLI runs, and reports are rendered by
//! [`render_experiment`] from the same outcomes — a request's report is
//! byte-identical to `repro` printing the same experiments.

use crate::experiments::{render_experiment, Repro};
use crate::runner::{
    default_jobs, resolved_outcome, supervise_one, CellOutcome, Experiment, PlannedCell,
    RequestPlan, SuperviseCtx, TraceCache,
};
use crate::supervise::{
    json_escape, lock_tolerant, CellFailure, FailureCause, Journal, Json, RunPolicy, Watchdog,
};
use oscache_memsys::CancelToken;
use oscache_workloads::BuildOptions;
use std::io::{Read, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
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

/// Per-cell progress streamed back while a request runs.
#[derive(Clone, Debug)]
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
    /// `key: cause-class` lines for the failed cells, in cell order.
    pub failures: Vec<String>,
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
    /// Soft-deadline overruns flagged by the watchdog.
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

/// One outcome slot of a request: `None` until the cell is processed.
type Slot = Option<Result<CellOutcome, CellFailure>>;

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

/// One admitted request's scheduling state.
struct Req {
    id: u64,
    client: String,
    experiments: Vec<Experiment>,
    plan: Arc<RequestPlan>,
    cancel: CancelToken,
    deadline: Option<Instant>,
    deadline_hit: bool,
    orphaned: bool,
    drained: bool,
    /// True once any cell has an outcome or a worker: resolved at
    /// admission or dispatched.
    started: bool,
    /// Plan indices of the cells admission could not resolve, in plan
    /// order: the only cells that ever reach a worker.
    todo: Vec<usize>,
    /// Next undispatched position in `todo` (== `todo.len()` once nothing
    /// more will be dispatched).
    next: usize,
    /// Cells dispatched to workers and not yet recorded back.
    inflight: usize,
    slots: Vec<Slot>,
    tx: Sender<Event>,
}

/// Scheduler state under the one service lock.
struct Sched {
    requests: Vec<Req>,
    /// Round-robin rotation counter over distinct clients.
    rr: u64,
    draining: bool,
    stopped: bool,
    queued_cells: usize,
    next_id: u64,
    /// Requests removed from `requests` whose report is still to be
    /// rendered and sent: filled under the lock, emptied by
    /// [`Inner::release`] once it is dropped.
    retired: Vec<Req>,
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
    overruns: AtomicU64,
}

struct Inner {
    scale: f64,
    opts: BuildOptions,
    queue_limit: usize,
    policy: RunPolicy,
    cache: Arc<TraceCache>,
    journal: Option<Journal>,
    watchdog: Option<Watchdog>,
    sched: Mutex<Sched>,
    cv: Condvar,
    counters: Counters,
    retries: AtomicU64,
    journal_hits: AtomicUsize,
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
    /// Provisions the cache, worker pool, watchdog, and deadline monitor.
    /// `journal` makes results persistent and deduplicates across daemon
    /// restarts.
    pub fn start(cfg: ServiceConfig, journal: Option<Journal>) -> Server {
        let jobs = if cfg.jobs == 0 {
            default_jobs()
        } else {
            cfg.jobs
        };
        let watchdog = cfg
            .policy
            .soft_deadline_ms
            .map(|ms| Watchdog::new(Duration::from_millis(ms.max(1)), cfg.policy.grace()));
        let inner = Arc::new(Inner {
            scale: cfg.scale,
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
            watchdog,
            sched: Mutex::new(Sched {
                requests: Vec::new(),
                rr: 0,
                draining: false,
                stopped: false,
                queued_cells: 0,
                next_id: 1,
                retired: Vec::new(),
            }),
            cv: Condvar::new(),
            counters: Counters::default(),
            retries: AtomicU64::new(0),
            journal_hits: AtomicUsize::new(0),
            journal_errors: Mutex::new(Vec::new()),
        });
        let mut threads = Vec::with_capacity(jobs + 2);
        for _ in 0..jobs {
            let inner = Arc::clone(&inner);
            threads.push(std::thread::spawn(move || inner.worker_loop()));
        }
        {
            let inner = Arc::clone(&inner);
            threads.push(std::thread::spawn(move || inner.monitor_loop()));
        }
        if inner.watchdog.is_some() {
            let inner = Arc::clone(&inner);
            threads.push(std::thread::spawn(move || {
                if let Some(dog) = &inner.watchdog {
                    dog.run();
                }
            }));
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
        inner.counters.submitted.fetch_add(1, Ordering::Relaxed);
        let plan = Arc::new(RequestPlan::for_experiments(
            &req.experiments,
            inner.opts,
            |_| false,
        ));
        let slots: Vec<Slot> = plan
            .cells
            .iter()
            .map(|pc| inner.resolve(pc).map(Ok))
            .collect();
        let todo: Vec<usize> = (0..plan.len()).filter(|&i| slots[i].is_none()).collect();
        let mut s = lock_tolerant(&inner.sched);
        if s.draining || s.stopped {
            inner
                .counters
                .rejected_shutdown
                .fetch_add(1, Ordering::Relaxed);
            return Admission::ShuttingDown;
        }
        if s.queued_cells + todo.len() > inner.queue_limit {
            inner
                .counters
                .rejected_overloaded
                .fetch_add(1, Ordering::Relaxed);
            return Admission::Overloaded {
                queued: s.queued_cells,
                limit: inner.queue_limit,
            };
        }
        let id = s.next_id;
        s.next_id += 1;
        let (tx, rx) = channel();
        let total = plan.len();
        for (cidx, slot) in slots.iter().enumerate() {
            if let Some(Ok(o)) = slot {
                inner
                    .counters
                    .cells_completed
                    .fetch_add(1, Ordering::Relaxed);
                if o.journaled {
                    inner.journal_hits.fetch_add(1, Ordering::Relaxed);
                }
                // The receiver is still in hand here, so the send succeeds.
                let _ = tx.send(progress(&plan, cidx, slot));
            }
        }
        s.queued_cells += todo.len();
        let req = Req {
            id,
            client: if req.client.is_empty() {
                "anon".to_string()
            } else {
                req.client
            },
            experiments: req.experiments,
            started: todo.len() < total,
            plan,
            cancel: CancelToken::new(),
            deadline: req
                .deadline_ms
                .map(|ms| Instant::now() + Duration::from_millis(ms)),
            deadline_hit: false,
            orphaned: false,
            drained: false,
            next: 0,
            inflight: 0,
            todo,
            slots,
            tx,
        };
        inner.counters.accepted.fetch_add(1, Ordering::Relaxed);
        if req.todo.is_empty() {
            s.retired.push(req);
        } else {
            s.requests.push(req);
        }
        inner.release(s);
        Admission::Accepted {
            id,
            total,
            events: rx,
        }
    }

    /// Cancels an admitted request (client vanished): trips its token so
    /// in-flight cells die within the polling latency, and abandons the
    /// queued rest.
    pub fn cancel(&self, id: u64) {
        let mut s = lock_tolerant(&self.inner.sched);
        if let Some(pos) = s.requests.iter().position(|r| r.id == id) {
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
        let mut s = lock_tolerant(&self.inner.sched);
        if s.draining {
            return;
        }
        s.draining = true;
        for pos in (0..s.requests.len()).rev() {
            self.inner.cancel_locked(&mut s, pos, CancelKind::Drain);
        }
        self.inner.release(s);
    }

    /// Drains, waits for every admitted request to finalize, and joins
    /// the worker pool. Idempotent; also runs on drop.
    pub fn stop(&self) {
        self.shutdown();
        {
            let mut s = lock_tolerant(&self.inner.sched);
            while !s.requests.is_empty() {
                s = self
                    .inner
                    .cv
                    .wait(s)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            s.stopped = true;
        }
        self.inner.cv.notify_all();
        if let Some(dog) = &self.inner.watchdog {
            dog.shutdown();
        }
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
            let s = lock_tolerant(&inner.sched);
            (s.requests.len(), s.queued_cells, s.draining)
        };
        ServiceStats {
            submitted: c.submitted.load(Ordering::Relaxed),
            accepted: c.accepted.load(Ordering::Relaxed),
            rejected_overloaded: c.rejected_overloaded.load(Ordering::Relaxed),
            rejected_shutdown: c.rejected_shutdown.load(Ordering::Relaxed),
            finished: c.finished.load(Ordering::Relaxed),
            cells_completed: c.cells_completed.load(Ordering::Relaxed),
            cells_failed: c.cells_failed.load(Ordering::Relaxed),
            journal_replays: inner.journal_hits.load(Ordering::Relaxed) as u64,
            retries: inner.retries.load(Ordering::Relaxed),
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
    /// Picks the next cell to dispatch under two-level round-robin:
    /// rotate across distinct clients (arrival order), FIFO across each
    /// client's requests. Returns the job outside-the-lock handle.
    fn pick(&self, s: &mut Sched) -> Option<(u64, Arc<RequestPlan>, usize, CancelToken)> {
        if s.draining {
            return None;
        }
        let mut clients: Vec<String> = Vec::new();
        for r in &s.requests {
            if r.next < r.todo.len() && !clients.contains(&r.client) {
                clients.push(r.client.clone());
            }
        }
        if clients.is_empty() {
            return None;
        }
        let start = (s.rr as usize) % clients.len();
        let client = clients[start].clone();
        s.rr += 1;
        let req = s
            .requests
            .iter_mut()
            .find(|r| r.client == client && r.next < r.todo.len())?;
        let cidx = req.todo[req.next];
        req.next += 1;
        req.inflight += 1;
        req.started = true;
        s.queued_cells -= 1;
        Some((req.id, Arc::clone(&req.plan), cidx, req.cancel.clone()))
    }

    /// Worker: pull one cell at a time through the same supervision path
    /// the CLI fan-out uses ([`supervise_one`]), with `share` always on so
    /// identical in-flight fingerprints across requests run once.
    fn worker_loop(&self) {
        loop {
            let (id, plan, cidx, cancel) = {
                let mut s = lock_tolerant(&self.sched);
                loop {
                    if s.stopped {
                        return;
                    }
                    if let Some(job) = self.pick(&mut s) {
                        break job;
                    }
                    s = self.cv.wait(s).unwrap_or_else(PoisonError::into_inner);
                }
            };
            let pc = &plan.cells[cidx];
            let out = if cancel.is_cancelled() {
                // Cancelled between dispatch and execution: charge the
                // deadline, don't burn a simulation.
                Err(CellFailure {
                    cell: pc.cell.clone(),
                    attempt: 0,
                    cause: FailureCause::Timeout,
                })
            } else {
                supervise_one(
                    SuperviseCtx {
                        cache: &self.cache,
                        opts: self.opts,
                        policy: &self.policy,
                        journal: self.journal.as_ref(),
                        watchdog: self.watchdog.as_ref(),
                        retries: &self.retries,
                        journal_hits: &self.journal_hits,
                        journal_errors: &self.journal_errors,
                        share: true,
                        cancel: &cancel,
                    },
                    pc,
                )
            };
            self.complete(id, cidx, out);
        }
    }

    /// The outcome the daemon already holds for `pc`, if any: its journal
    /// record, or (without a journal) a result this daemon simulated.
    fn resolve(&self, pc: &PlannedCell) -> Option<CellOutcome> {
        match &self.journal {
            Some(j) => j
                .lookup(pc.digest)
                .map(|stats| resolved_outcome(&pc.cell, stats, true)),
            None => self
                .cache
                .shared_result(&pc.fingerprint)
                .map(|r| resolved_outcome(&pc.cell, r.stats, false)),
        }
    }

    /// Records one processed cell, streams progress, finalizes the
    /// request when it was the last.
    fn complete(&self, id: u64, cidx: usize, out: Result<CellOutcome, CellFailure>) {
        let mut s = lock_tolerant(&self.sched);
        let Some(pos) = s.requests.iter().position(|r| r.id == id) else {
            return;
        };
        match &out {
            Ok(_) => self
                .counters
                .cells_completed
                .fetch_add(1, Ordering::Relaxed),
            Err(_) => self.counters.cells_failed.fetch_add(1, Ordering::Relaxed),
        };
        let req = &mut s.requests[pos];
        req.slots[cidx] = Some(out);
        req.inflight -= 1;
        let orphaned = req
            .tx
            .send(progress(&req.plan, cidx, &req.slots[cidx]))
            .is_err();
        if orphaned && !req.orphaned {
            self.cancel_locked(&mut s, pos, CancelKind::ClientGone);
        } else if req.inflight == 0 && req.next >= req.todo.len() {
            self.retire(&mut s, pos);
        }
        self.release(s);
    }

    /// Abandons a request's undispatched cells per `kind`; finalizes
    /// immediately when nothing is in flight.
    fn cancel_locked(&self, s: &mut Sched, pos: usize, kind: CancelKind) {
        {
            let req = &mut s.requests[pos];
            s.queued_cells -= req.todo.len() - req.next;
            match kind {
                CancelKind::Deadline => {
                    req.cancel.cancel();
                    req.deadline_hit = true;
                    for &i in &req.todo[req.next..] {
                        req.slots[i] = Some(Err(CellFailure {
                            cell: req.plan.cells[i].cell.clone(),
                            attempt: 0,
                            cause: FailureCause::Timeout,
                        }));
                    }
                }
                CancelKind::ClientGone => {
                    req.cancel.cancel();
                    req.orphaned = true;
                }
                CancelKind::Drain => {
                    req.drained = true;
                }
            }
            req.next = req.todo.len();
        }
        if s.requests[pos].inflight == 0 {
            self.retire(s, pos);
        }
    }

    /// Removes a finished request from the schedule; [`Inner::release`]
    /// renders and answers it once the lock is dropped.
    fn retire(&self, s: &mut Sched, pos: usize) {
        let req = s.requests.remove(pos);
        s.retired.push(req);
    }

    /// Drops the scheduler lock, waking every waiter first, and then
    /// finalizes the requests retired while it was held. Every request
    /// finalizes here, so no report is ever rendered under the lock.
    fn release(&self, mut s: MutexGuard<'_, Sched>) {
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
    fn finalize(&self, req: Req) {
        let total = req.plan.len();
        let mut ok_outcomes: Vec<CellOutcome> = Vec::new();
        let mut failures: Vec<String> = Vec::new();
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
                Some(Err(f)) => failures.push(format!("{}: {}", f.cell.key(), f.cause.class())),
                None => unstarted += 1,
            }
        }
        let completed = ok_outcomes.len();
        let (report, skipped) = if req.orphaned {
            (String::new(), Vec::new())
        } else {
            let mut r = Repro::with_cache(self.scale, 1, Arc::clone(&self.cache));
            r.absorb_outcomes(ok_outcomes);
            let mut text = String::new();
            let mut skipped = Vec::new();
            for e in &req.experiments {
                if r.experiment_ready(*e) {
                    text.push_str(&render_experiment(&mut r, *e));
                } else {
                    skipped.push(e.name().to_string());
                }
            }
            (text, skipped)
        };
        self.counters.finished.fetch_add(1, Ordering::Relaxed);
        let _ = req.tx.send(Event::Done(RequestReport {
            id: req.id,
            total,
            completed,
            failed: failures.len(),
            unstarted,
            journal_hits,
            deadline_exceeded: req.deadline_hit,
            shutdown: req.drained && !req.started,
            report,
            skipped,
            failures,
        }));
    }

    /// Deadline monitor: trips expired request tokens (so the acceptance
    /// bound — cancelled within one polling grace of the deadline — holds
    /// without any client cooperation) and drains watchdog overruns into
    /// the counters.
    fn monitor_loop(&self) {
        loop {
            let mut s = lock_tolerant(&self.sched);
            if s.stopped {
                return;
            }
            let now = Instant::now();
            let mut wake = Duration::from_millis(50);
            let expired: Vec<u64> = s
                .requests
                .iter()
                .filter_map(|r| match r.deadline {
                    Some(d) if !r.deadline_hit && d <= now => Some(r.id),
                    Some(d) if !r.deadline_hit => {
                        wake = wake.min(d - now);
                        None
                    }
                    _ => None,
                })
                .collect();
            for id in expired {
                if let Some(pos) = s.requests.iter().position(|r| r.id == id) {
                    self.cancel_locked(&mut s, pos, CancelKind::Deadline);
                }
            }
            if !s.retired.is_empty() {
                self.release(s);
                continue;
            }
            if let Some(dog) = &self.watchdog {
                let n = dog.take_overruns().len();
                if n > 0 {
                    self.counters
                        .overruns
                        .fetch_add(n as u64, Ordering::Relaxed);
                    self.cv.notify_all();
                }
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

/// Parses one request line. `experiments` entries are experiment names
/// (`table1`, `fig6`, ...; `all` expands to every experiment in paper
/// order); `client` and `deadline_ms` are optional.
pub fn parse_request(line: &str) -> Result<WireRequest, String> {
    let v = Json::parse(line)?;
    match v.field("op")?.str()? {
        "run" => {
            let mut experiments = Vec::new();
            for e in v.field("experiments")?.arr()? {
                let name = e.str()?;
                if name == "all" {
                    experiments.extend(Experiment::all());
                } else {
                    experiments.push(
                        Experiment::parse(name)
                            .ok_or_else(|| format!("unknown experiment {name:?}"))?,
                    );
                }
            }
            if experiments.is_empty() {
                return Err("empty experiment list".to_string());
            }
            let client = v
                .field("client")
                .ok()
                .and_then(|c| c.str().ok())
                .unwrap_or("anon")
                .to_string();
            let deadline_ms = match v.field("deadline_ms") {
                Ok(d) => Some(d.u64()?),
                Err(_) => None,
            };
            Ok(WireRequest::Run(RunRequest {
                client,
                experiments,
                deadline_ms,
            }))
        }
        "stats" => Ok(WireRequest::Stats),
        "shutdown" => Ok(WireRequest::Shutdown),
        other => Err(format!("unknown op {other:?}")),
    }
}

/// Serializes a [`RunRequest`] as its request line (client side).
pub fn run_request_line(req: &RunRequest) -> String {
    let exps: Vec<String> = req
        .experiments
        .iter()
        .map(|e| format!("\"{}\"", e.name()))
        .collect();
    let mut line = format!(
        "{{\"op\":\"run\",\"client\":\"{}\",\"experiments\":[{}]",
        json_escape(&req.client),
        exps.join(",")
    );
    if let Some(ms) = req.deadline_ms {
        line.push_str(&format!(",\"deadline_ms\":{ms}"));
    }
    line.push('}');
    line
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

/// Serializes one reply line (server side).
pub fn reply_line(r: &Reply) -> String {
    match r {
        Reply::Accepted { id, total } => {
            format!("{{\"status\":\"accepted\",\"id\":{id},\"total\":{total}}}")
        }
        Reply::Rejected { status } => format!("{{\"status\":\"{status}\"}}"),
        Reply::Cell(p) => format!(
            "{{\"status\":\"cell\",\"index\":{},\"total\":{},\"key\":\"{}\",\"ok\":{},\"ms\":{:.1},\"journaled\":{}}}",
            p.index,
            p.total,
            json_escape(&p.key),
            p.ok,
            p.ms,
            p.journaled
        ),
        Reply::Done(rep) => {
            let skipped: Vec<String> = rep
                .skipped
                .iter()
                .map(|s| format!("\"{}\"", json_escape(s)))
                .collect();
            let failures: Vec<String> = rep
                .failures
                .iter()
                .map(|s| format!("\"{}\"", json_escape(s)))
                .collect();
            format!(
                "{{\"status\":\"done\",\"id\":{},\"total\":{},\"completed\":{},\"failed\":{},\"unstarted\":{},\"journal_hits\":{},\"deadline_exceeded\":{},\"shutdown\":{},\"skipped\":[{}],\"failures\":[{}],\"report\":\"{}\"}}",
                rep.id,
                rep.total,
                rep.completed,
                rep.failed,
                rep.unstarted,
                rep.journal_hits,
                rep.deadline_exceeded,
                rep.shutdown,
                skipped.join(","),
                failures.join(","),
                json_escape(&rep.report)
            )
        }
        Reply::Stats(st) => format!(
            "{{\"status\":\"stats\",\"submitted\":{},\"accepted\":{},\"rejected_overloaded\":{},\"rejected_shutdown\":{},\"finished\":{},\"cells_completed\":{},\"cells_failed\":{},\"journal_replays\":{},\"retries\":{},\"overruns\":{},\"active_requests\":{},\"queued_cells\":{},\"draining\":{},\"trace_builds\":{},\"base_traces\":{},\"prepared_cells\":{},\"peak_rss_mb\":{:.1},\"spilled_mb\":{:.1}}}",
            st.submitted,
            st.accepted,
            st.rejected_overloaded,
            st.rejected_shutdown,
            st.finished,
            st.cells_completed,
            st.cells_failed,
            st.journal_replays,
            st.retries,
            st.overruns,
            st.active_requests,
            st.queued_cells,
            st.draining,
            st.trace_builds,
            st.base_traces,
            st.prepared_cells,
            st.peak_rss_mb,
            st.spilled_mb
        ),
        Reply::Error(msg) => format!("{{\"status\":\"error\",\"msg\":\"{}\"}}", json_escape(msg)),
    }
}

/// Parses one reply line (client side).
pub fn parse_reply(line: &str) -> Result<Reply, String> {
    let v = Json::parse(line)?;
    let status = v.field("status")?.str()?;
    match status {
        "accepted" => Ok(Reply::Accepted {
            id: v.field_u64("id")?,
            total: v.field_u64("total")? as usize,
        }),
        "overloaded" | "shutting-down" => Ok(Reply::Rejected {
            status: status.to_string(),
        }),
        "cell" => Ok(Reply::Cell(CellProgress {
            index: v.field_u64("index")? as usize,
            total: v.field_u64("total")? as usize,
            key: v.field("key")?.str()?.to_string(),
            ok: bool_field(&v, "ok")?,
            ms: v.field("ms")?.f64()?,
            journaled: bool_field(&v, "journaled")?,
        })),
        "done" => {
            let strings = |name: &str| -> Result<Vec<String>, String> {
                v.field(name)?
                    .arr()?
                    .iter()
                    .map(|s| s.str().map(str::to_string))
                    .collect()
            };
            Ok(Reply::Done(RequestReport {
                id: v.field_u64("id")?,
                total: v.field_u64("total")? as usize,
                completed: v.field_u64("completed")? as usize,
                failed: v.field_u64("failed")? as usize,
                unstarted: v.field_u64("unstarted")? as usize,
                journal_hits: v.field_u64("journal_hits")? as usize,
                deadline_exceeded: bool_field(&v, "deadline_exceeded")?,
                shutdown: bool_field(&v, "shutdown")?,
                report: v.field("report")?.str()?.to_string(),
                skipped: strings("skipped")?,
                failures: strings("failures")?,
            }))
        }
        "stats" => Ok(Reply::Stats(ServiceStats {
            submitted: v.field_u64("submitted")?,
            accepted: v.field_u64("accepted")?,
            rejected_overloaded: v.field_u64("rejected_overloaded")?,
            rejected_shutdown: v.field_u64("rejected_shutdown")?,
            finished: v.field_u64("finished")?,
            cells_completed: v.field_u64("cells_completed")?,
            cells_failed: v.field_u64("cells_failed")?,
            journal_replays: v.field_u64("journal_replays")?,
            retries: v.field_u64("retries")?,
            overruns: v.field_u64("overruns")?,
            active_requests: v.field_u64("active_requests")? as usize,
            queued_cells: v.field_u64("queued_cells")? as usize,
            draining: bool_field(&v, "draining")?,
            trace_builds: v.field_u64("trace_builds")? as usize,
            base_traces: v.field_u64("base_traces")? as usize,
            prepared_cells: v.field_u64("prepared_cells")? as usize,
            // Absent in replies from pre-spill daemons: default to zero
            // rather than failing the whole stats line.
            peak_rss_mb: v.field("peak_rss_mb").and_then(|f| f.f64()).unwrap_or(0.0),
            spilled_mb: v.field("spilled_mb").and_then(|f| f.f64()).unwrap_or(0.0),
        })),
        "error" => Ok(Reply::Error(v.field("msg")?.str()?.to_string())),
        other => Err(format!("unknown reply status {other:?}")),
    }
}

fn bool_field(v: &Json, name: &str) -> Result<bool, String> {
    match v.field(name)? {
        Json::Bool(b) => Ok(*b),
        other => Err(format!("expected bool for {name:?}, got {other:?}")),
    }
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
    batch.push_str(&reply_line(r));
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
