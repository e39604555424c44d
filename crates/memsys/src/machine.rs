//! The trace-driven multiprocessor machine model.
//!
//! [`Machine`] replays a multiprocessor [`ChunkedTrace`] against the §2.4
//! architecture: per-CPU L1I/L1D/L2 caches with write buffers, a shared
//! split-transaction bus with full contention, Illinois-MESI invalidation
//! coherence with optional per-page Firefly updates (§5.2), software
//! prefetching with lockup-free overlap, and the §4.2 block-operation
//! schemes including the DMA-like transfer engine.
//!
//! CPUs are interleaved in simulated-time order (the CPU with the smallest
//! local clock executes its next event), which yields FIFO bus arbitration
//! and lets lock mutual exclusion and barrier semantics be enforced exactly
//! — the paper does the same: "we identify the synchronization events in
//! the trace and make sure that their mutual exclusion functionality is
//! maintained in the simulations" (§2.2).
//!
//! The event loop is *config-specialized* (DESIGN.md §15): an audit-off
//! [`Machine::run`] runs a monomorphized copy of the loop in which
//! auditing is a compile-time constant; update pages, the victim cache and
//! cancellation stay run-time checks. The generic loop — the same body
//! instantiated with every decision dynamic — is kept as the equivalence
//! oracle behind [`Machine::run_generic`].

use crate::error::{SimError, SimErrorKind};
use crate::history::{CacheLevel, Departure, DepartureTable};
use crate::prefetch::{MshrSet, PrefetchBuffer};
use crate::spec::{Gen, Spec, K};
use crate::stats::{CpuStats, MissKind, SimStats};
use crate::{
    AuditLevel, BlockOpScheme, Bus, BusOp, Cache, CoreGauge, LineState, MachineConfig, WriteBuffer,
};
use oscache_trace::{
    Addr, BasicBlock, BlockOp, ChunkedTrace, DataClass, Event, HotspotPlan, LineAddr, MergedStream,
    Mode,
};
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Instant;

/// Number of events between cancellation polls, shared by the generic and
/// the specialized replay loops.
///
/// The poll sits in the loop preamble — *before* an event is dispatched —
/// so a tripped [`CancelToken`](crate::CancelToken) stops the replay at a
/// deterministic event index (`steps % CANCEL_POLL_STRIDE == 0`) that
/// depends only on the stride, never on the event mix. (The poll formerly
/// lived inside the event handler of a subset of event kinds, which made
/// cancellation latency depend on which events a trace happened to
/// contain.) 1024 events is a few microseconds of replay: cheap enough to
/// be free on the hot path, frequent enough that a cancelled replay stops
/// within microseconds of the request. Must be a power of two (the poll
/// uses it as a mask).
pub const CANCEL_POLL_STRIDE: u64 = 1024;

/// Cycle-accounting bucket (Figure 3's execution-time decomposition).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Bucket {
    /// Instruction execution.
    Exec,
    /// Instruction-cache miss stall.
    IMiss,
    /// Data read-miss stall.
    DRead,
    /// Write-buffer overflow stall.
    DWrite,
    /// Partially-hidden prefetch stall.
    Pref,
    /// Synchronization wait (barriers, contended locks).
    Sync,
}

/// Scheduling status of a CPU.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Status {
    Runnable,
    OnLock(u16, u64),
    AtBarrier(u16, u64),
    Done,
}

/// Classification computed for a (potential) miss before fills erase the
/// evidence; stored with in-flight prefetches so partially-hidden misses
/// are counted correctly when the demand access arrives.
#[derive(Clone, Copy, Debug)]
pub(crate) struct PendingClass {
    pub kind: MissKind,
    pub class: DataClass,
    pub displaced: bool,
    pub reused: bool,
}

/// Per-block-operation transient state.
#[derive(Clone, Copy, Debug)]
pub(crate) struct ActiveOp {
    pub op: BlockOp,
    /// Last source L1 line that triggered a look-ahead prefetch (`Blk_Pref`).
    pub last_pref_trigger: Option<LineAddr>,
    /// Next source byte offset to stream into the prefetch buffer
    /// (`Blk_ByPref`).
    pub next_pbuf_off: u32,
    /// Source line currently held in the bypass line register.
    pub src_reg: Option<LineAddr>,
    /// Destination line currently accumulating in the bypass line register.
    pub dst_reg: Option<LineAddr>,
}

impl ActiveOp {
    pub(crate) fn new(op: BlockOp) -> Self {
        ActiveOp {
            op,
            last_pref_trigger: None,
            next_pbuf_off: 0,
            src_reg: None,
            dst_reg: None,
        }
    }
}

pub(crate) struct Cpu {
    pub time: u64,
    pub mode: Mode,
    /// The L2's single port serializes demand accesses and buffered-write
    /// drains ("All contention is simulated, including cache port", §2.4).
    pub l2_port_free: u64,
    /// Victim-cache contents (FIFO of recently evicted L1D lines), empty
    /// when `cfg.victim_lines == 0`.
    pub victim: Vec<LineAddr>,
    pub l1i: Cache,
    pub l1d: Cache,
    pub l2: Cache,
    pub wb1: WriteBuffer,
    pub wb2: WriteBuffer,
    pub mshr: MshrSet,
    pub pbuf: PrefetchBuffer,
    pub cursor: usize,
    status: Status,
    pub block: Option<ActiveOp>,
    pub cur_site: u16,
    pub stats: CpuStats,
}

/// State of one lock id in the dense lock table.
///
/// `Unknown` (never acquired in this run) is distinguished from `Free` so
/// that releasing a lock the machine has never seen still reports the
/// typed [`SimErrorKind::LockReleaseUnknown`] error.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
enum LockSlot {
    #[default]
    Unknown,
    Free,
    Held(usize),
}

#[derive(Clone, Default)]
struct BarrierState {
    arrived: Vec<usize>,
}

/// One CPU's decode window over its merged stream: the single filled
/// merged chunk its cursor (or a bounded scan like the DMA bracket skip)
/// is currently inside, covering merged indices `[lo, lo + events.len())`.
/// Pure cache — never part of [`Machine::state_digest`].
struct DecodeWindow {
    /// Merged index of `events[0]`.
    lo: usize,
    events: Vec<Event>,
    /// Highest chunk index handed to the decode-ahead helper for this CPU
    /// (`usize::MAX` = none), bounding the request queue to at most one
    /// outstanding request per swap-in.
    requested: usize,
}

impl Default for DecodeWindow {
    fn default() -> Self {
        DecodeWindow {
            lo: 0,
            events: Vec::new(),
            requested: usize::MAX,
        }
    }
}

/// Decode-overlap telemetry of one replay (DESIGN.md §17). Pure
/// observability: none of these feed back into simulated state, timing, or
/// [`Machine::state_digest`] — a replay with prefetching on and one with it
/// off produce identical statistics and digests by construction.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct OverlapStats {
    /// Wall milliseconds the event loop spent in *synchronous*
    /// `decode_chunk` calls — the decode stall the prefetch stage exists
    /// to hide. With prefetching on, this is the residual (cold first
    /// chunks, backward scans, helper outruns).
    pub decode_ms: f64,
    /// Chunk swap-ins satisfied by a ready decode-ahead buffer.
    pub prefetch_hits: u64,
    /// Chunk swap-ins that fell back to synchronous decode.
    pub sync_decodes: u64,
}

/// The decode-ahead mailbox shared between the event loop and the
/// per-machine decoder helper thread (DESIGN.md §17).
///
/// Protocol: on swapping merged chunk `c` into CPU `i`'s window, the event
/// loop enqueues a request for chunk `c+1` and marks it in
/// `DecodeWindow::requested`. The helper pops requests, fills a recycled
/// spare buffer *outside* the lock through the same
/// [`MergedStream::try_fill`] the synchronous path calls (a pure function
/// of the chunk bytes and the plan), and publishes into the per-CPU
/// `ready` slot. The next
/// swap-in consumes a matching ready buffer by pointer swap; a stale one
/// (backward scan, or the consumer outran the helper and decoded
/// synchronously) is recycled into `spares`. Memory is bounded: one
/// window plus at most one ready buffer per CPU, with the recycled
/// spares swapping between those two populations — O(2·chunk) per CPU.
struct PrefetchShared {
    state: Mutex<PrefetchState>,
    cv: Condvar,
}

struct PrefetchState {
    /// FIFO of (cpu, chunk) decode requests; ≤ 1 in flight per CPU.
    requests: VecDeque<(usize, usize)>,
    /// Per-CPU ready slot: a decoded (chunk, events) buffer.
    ready: Vec<Option<(usize, Vec<Event>)>>,
    /// Recycled buffers, reused so steady state allocates nothing.
    spares: Vec<Vec<Event>>,
    /// Set once by the event loop when the replay is over.
    shutdown: bool,
}

impl PrefetchShared {
    fn new(n_cpus: usize) -> Self {
        PrefetchShared {
            state: Mutex::new(PrefetchState {
                requests: VecDeque::new(),
                ready: (0..n_cpus).map(|_| None).collect(),
                spares: Vec::new(),
                shutdown: false,
            }),
            cv: Condvar::new(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, PrefetchState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn shutdown(&self) {
        self.lock().shutdown = true;
        self.cv.notify_all();
    }
}

/// Shuts the helper down when dropped, so an event loop that unwinds (an
/// unrecoverable spilled frame panics it) still releases the helper and
/// the enclosing thread scope can join it instead of waiting forever.
struct StopHelper<'a>(&'a PrefetchShared);

impl Drop for StopHelper<'_> {
    fn drop(&mut self) {
        self.0.shutdown();
    }
}

/// The decoder helper's run loop: pop a request, fill the merged chunk
/// into a recycled buffer with the lock released, publish it into the
/// CPU's ready slot. Fill purity makes the helper invisible to replay
/// semantics — it only ever produces the same merged events `fetch_event`
/// would have filled synchronously.
///
/// A spilled chunk that can be neither read nor salvaged is not published:
/// the event loop then decodes it synchronously and fails on its own
/// thread, where the cell's supervision catches it. The helper never
/// panics, so no bare helper-thread panic reaches stderr.
fn decode_helper(streams: &[MergedStream<'_>], shared: &PrefetchShared) {
    loop {
        let (cpu, chunk, mut buf) = {
            let mut st = shared.lock();
            loop {
                if st.shutdown {
                    return;
                }
                if let Some((cpu, chunk)) = st.requests.pop_front() {
                    let buf = st.spares.pop().unwrap_or_default();
                    break (cpu, chunk, buf);
                }
                st = shared.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
            }
        };
        let decoded = streams[cpu].try_fill(chunk, &mut buf);
        let mut st = shared.lock();
        if decoded.is_err() {
            st.spares.push(buf);
            continue;
        }
        if let Some((_, old)) = st.ready[cpu].replace((chunk, buf)) {
            // A stale ready entry the consumer never took (backward scan).
            st.spares.push(old);
        }
    }
}

/// The simulated multiprocessor.
pub struct Machine<'t> {
    pub(crate) cfg: MachineConfig,
    /// The replayed trace (its code layout resolves `Exec` events).
    trace: &'t ChunkedTrace,
    /// Per-CPU replay streams: the trace's chunked streams with the hot
    /// set's prefetches merged in, filled on demand through `windows` so
    /// the replay's decoded footprint is one chunk per CPU. Shared with
    /// the decode-ahead helper.
    streams: Arc<[MergedStream<'t>]>,
    /// Per-CPU merged stream lengths, hoisted so end-of-stream checks
    /// never touch the chunk tables.
    stream_len: Vec<usize>,
    /// Per-CPU decode windows.
    windows: Vec<DecodeWindow>,
    pub(crate) cpus: Vec<Cpu>,
    pub(crate) bus: Bus,
    /// Dense lock table indexed by lock id (grown on first sight of an
    /// id); the replay path never hashes.
    locks: Vec<LockSlot>,
    /// Dense barrier table indexed by barrier id.
    barriers: Vec<BarrierState>,
    /// Why each line last left each CPU's L1D and L2, and the bypass
    /// marks (read only to classify misses).
    pub(crate) history: DepartureTable,
    /// L1D lines installed without a resident covering L2 line (the
    /// write-merge path) — tolerated by the inclusion audit until they
    /// leave the L1D. Maintained only when auditing is on; stored as
    /// sorted vectors probed by binary search.
    pub(crate) incl_exempt: Vec<Vec<u32>>,
    steps: u64,
    /// Whether the replay runs a decode-ahead helper thread
    /// (DESIGN.md §17): `None` lets the process [`CoreGauge`] decide (a
    /// helper only on a spare core); [`Machine::set_decode_prefetch`] pins
    /// it on or off for the differential tests.
    decode_prefetch: Option<bool>,
    /// The live decode-ahead mailbox, present only while the specialized
    /// loop runs with its helper thread attached.
    prefetch: Option<Arc<PrefetchShared>>,
    /// Nanoseconds spent in synchronous `decode_chunk` calls (observability
    /// only — never part of simulated time or `state_digest`).
    decode_ns: u64,
    /// Chunk swap-ins served from a ready decode-ahead buffer.
    prefetch_hits: u64,
    /// Chunk swap-ins that decoded synchronously.
    sync_decodes: u64,
}

impl<'t> Machine<'t> {
    /// Builds a machine ready to replay `trace` under `cfg`.
    ///
    /// The trace is validated first (see [`ChunkedTrace::validate_for_cpus`]):
    /// malformed traces — wrong CPU count, unresolvable block ids,
    /// unbalanced lock or block-operation brackets, inconsistent barriers —
    /// are rejected with a typed [`SimError`] before any replay state is
    /// built. Validation is answered from the facts the trace's encoder
    /// recorded, so a valid trace costs no O(events) scan however many
    /// machines replay it.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` itself is invalid (see [`MachineConfig::validate`]) —
    /// a programmer error, unlike trace problems, which are input errors.
    pub fn new(cfg: MachineConfig, trace: &'t ChunkedTrace) -> Result<Self, SimError> {
        Self::with_prefetches(cfg, trace, HotspotPlan::empty(), &[])
    }

    /// [`Machine::new`] replaying `trace` with the §6 hot-spot prefetches
    /// of `hot` merged in: every entry of `plan` whose site is in `hot` is
    /// spliced into the stream as its decode windows fill, so the replay
    /// — statistics, `steps`, [`Machine::state_digest`], cursors — equals
    /// a replay of `trace` with those prefetches encoded in, without that
    /// trace ever being encoded (the tests replay the oracle crate's
    /// pass-by-pass insertion as the reference).
    ///
    /// Besides the validation [`Machine::new`] does, rejects a plan that
    /// positions an entry past the end of its stream (or names a stream
    /// the trace lacks) with [`SimErrorKind::PlanOutOfRange`].
    pub fn with_prefetches(
        cfg: MachineConfig,
        trace: &'t ChunkedTrace,
        plan: &'t HotspotPlan,
        hot: &'t [u16],
    ) -> Result<Self, SimError> {
        trace.validate_for_cpus(cfg.n_cpus)?;
        cfg.validate();
        let out_of_range = |cpu: usize, before: u32, stream_len: usize| SimError {
            cycle: 0,
            cpu: Some(cpu),
            line: None,
            kind: SimErrorKind::PlanOutOfRange { before, stream_len },
        };
        if let Some(cpu) = (trace.n_cpus()..plan.n_streams()).find(|&c| !plan.stream(c).is_empty())
        {
            return Err(out_of_range(cpu, plan.stream(cpu)[0].before(), 0));
        }
        let streams = trace
            .streams
            .iter()
            .enumerate()
            .map(|(cpu, s)| {
                MergedStream::new(s, plan, cpu, hot).map_err(|b| out_of_range(cpu, b, s.len()))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let stream_len = streams.iter().map(MergedStream::len).collect();
        let cpus = (0..cfg.n_cpus)
            .map(|_| Cpu {
                time: 0,
                mode: Mode::User,
                l2_port_free: 0,
                victim: Vec::new(),
                l1i: Cache::new(cfg.l1i),
                l1d: Cache::new(cfg.l1d),
                l2: Cache::new(cfg.l2),
                wb1: WriteBuffer::new(cfg.wb1_depth),
                wb2: WriteBuffer::new(cfg.wb2_depth),
                mshr: MshrSet::new(cfg.max_prefetches),
                pbuf: PrefetchBuffer::new(cfg.prefetch_buf_lines),
                cursor: 0,
                status: Status::Runnable,
                block: None,
                cur_site: 0,
                stats: CpuStats::default(),
            })
            .collect();
        let n_cpus = cfg.n_cpus;
        let history = DepartureTable::new(n_cpus, cfg.l1d.line, cfg.l2.line);
        Ok(Machine {
            cfg,
            trace,
            streams: streams.into(),
            stream_len,
            windows: (0..n_cpus).map(|_| DecodeWindow::default()).collect(),
            cpus,
            bus: Bus::new(),
            locks: Vec::new(),
            barriers: Vec::new(),
            history,
            incl_exempt: vec![Vec::new(); n_cpus],
            steps: 0,
            decode_prefetch: None,
            prefetch: None,
            decode_ns: 0,
            prefetch_hits: 0,
            sync_decodes: 0,
        })
    }

    /// Pins the decode-ahead helper on or off for this machine, bypassing
    /// the core gauge that decides by default. Changing it cannot change
    /// any replay output — only whether chunk decode overlaps the event
    /// loop (see [`Machine::overlap_stats`]).
    pub fn set_decode_prefetch(&mut self, on: bool) {
        self.decode_prefetch = Some(on);
    }

    /// Decode-overlap telemetry of the replay so far (see [`OverlapStats`]).
    pub fn overlap_stats(&self) -> OverlapStats {
        OverlapStats {
            decode_ms: self.decode_ns as f64 / 1e6,
            prefetch_hits: self.prefetch_hits,
            sync_decodes: self.sync_decodes,
        }
    }

    // ---- specialization helpers ------------------------------------------

    /// Audit-off decision through the witness (folds under [`K`]).
    #[inline(always)]
    pub(crate) fn s_audit_off<S: Spec>(&self) -> bool {
        S::AUDIT_OFF.resolve(self.cfg.audit == AuditLevel::Off)
    }

    /// Replays the whole trace and returns the collected statistics.
    ///
    /// An audit-off replay runs the monomorphized event loop; an audited
    /// replay runs the generic loop. The choice never changes any output:
    /// `tests/specialize_oracle.rs` and `tests/specialize_matrix.rs` pin
    /// the specialized loop bitwise against the generic oracle.
    ///
    /// Fails with a typed [`SimError`] on deadlock (a barrier some
    /// participant never reaches, or a lock never released), on replay
    /// semantics the trace violates (e.g. a lock released by a non-holder),
    /// and on any invariant violation the configured
    /// [`AuditLevel`](crate::AuditLevel) catches.
    pub fn run(mut self) -> Result<SimStats, SimError> {
        self.run_mut()
    }

    /// [`Machine::run`] on a borrowed machine, leaving the final state
    /// inspectable (see [`Machine::state_digest`]). Running a machine that
    /// has already replayed returns its (unchanged) statistics again.
    pub fn run_mut(&mut self) -> Result<SimStats, SimError> {
        // This thread is busy replaying (counted once if its caller
        // already holds a lease).
        let _busy = CoreGauge::process().lease();
        if self.cfg.audit != AuditLevel::Off {
            self.run_loop_generic()
        } else {
            self.run_loop_spec::<K>()
        }
    }

    /// Replays on the generic (all-decisions-dynamic) loop regardless of
    /// the configuration: the equivalence oracle the differential
    /// harnesses compare [`Machine::run`] against.
    pub fn run_generic(mut self) -> Result<SimStats, SimError> {
        self.run_generic_mut()
    }

    /// [`Machine::run_generic`] on a borrowed machine.
    pub fn run_generic_mut(&mut self) -> Result<SimStats, SimError> {
        self.run_loop_generic()
    }

    /// The generic replay loop: one full scheduling scan per event, every
    /// decision dynamic. Kept structurally independent of the batched
    /// specialized loop so the oracle exercises genuinely different control
    /// flow.
    fn run_loop_generic(&mut self) -> Result<SimStats, SimError> {
        while let Some(i) = self.pick_next() {
            self.poll_cancel(i)?;
            self.step::<Gen>(i)?;
        }
        self.finish::<Gen>()
    }

    /// The specialized replay loop: monomorphized over `S` and *batched* —
    /// once a CPU is scheduled it keeps stepping, without rescanning, until
    /// an event may have changed another CPU's clock or status, it blocks
    /// or finishes, or its clock passes the runner-up CPU's. Events come
    /// through [`Machine::fetch_event`]'s per-CPU decode window.
    ///
    /// When the trace is big enough to matter (some stream has more than
    /// one chunk) and the process has a spare core (or the helper is
    /// pinned on), the loop body runs with a scoped decoder helper thread
    /// attached (DESIGN.md §17):
    /// `fetch_event` requests the next chunk as it enters the current
    /// one, and swap-ins consume ready buffers instead of stalling on
    /// `decode_chunk`. Decode is pure, so the helper cannot change the
    /// event sequence — statistics, goldens, and `state_digest()` are
    /// identical with the helper on or off (pinned by
    /// `tests/decode_ahead.rs` and the schedule-oracle CI job).
    fn run_loop_spec<S: Spec>(&mut self) -> Result<SimStats, SimError> {
        let big = self.cfg.n_cpus > 0 && self.streams.iter().any(|s| s.n_chunks() > 1);
        // `Some(core)`: run a helper, holding `core` (`None` when pinned on).
        let helper_core = match self.decode_prefetch {
            _ if !big => None,
            None => CoreGauge::process().try_lease().map(Some),
            Some(on) => on.then_some(None),
        };
        let Some(core) = helper_core else {
            return self.spec_loop_body::<S>();
        };
        let shared = Arc::new(PrefetchShared::new(self.cfg.n_cpus));
        self.prefetch = Some(Arc::clone(&shared));
        let streams = Arc::clone(&self.streams);
        let result = std::thread::scope(|scope| {
            let helper = {
                let shared = Arc::clone(&shared);
                scope.spawn(move || {
                    let _core = core;
                    decode_helper(&streams, &shared)
                })
            };
            let stop = StopHelper(&shared);
            let r = self.spec_loop_body::<S>();
            drop(stop);
            let _ = helper.join();
            r
        });
        self.prefetch = None;
        result
    }

    /// The batched loop proper (shared by the synchronous and the
    /// decode-ahead paths — the only difference is whether `fetch_event`
    /// finds a live mailbox in `self.prefetch`).
    fn spec_loop_body<S: Spec>(&mut self) -> Result<SimStats, SimError> {
        'schedule: while let Some((i, limit)) = self.pick_two() {
            let n = self.stream_len[i];
            loop {
                self.poll_cancel(i)?;
                self.steps += 1;
                let cursor = self.cpus[i].cursor;
                if cursor >= n {
                    self.cpus[i].status = Status::Done;
                    continue 'schedule;
                }
                let ev = self.fetch_event(i, cursor);
                let resched = self.dispatch_ev::<S>(i, ev, n)?;
                if resched || self.cpus[i].status != Status::Runnable {
                    continue 'schedule;
                }
                if let Some((lt, lj)) = limit {
                    let t = self.cpus[i].time;
                    // Ties go to the lower index, exactly as in pick_next.
                    let still_first = if lj < i { t < lt } else { t <= lt };
                    if !still_first {
                        continue 'schedule;
                    }
                }
            }
        }
        self.finish::<S>()
    }

    /// The cancellation poll, hoisted into the loop preamble of both
    /// replay loops: before the event at index `steps` is dispatched, every
    /// [`CANCEL_POLL_STRIDE`]-th index checks the token (an unarmed token
    /// answers `false`).
    #[inline(always)]
    fn poll_cancel(&self, i: usize) -> Result<(), SimError> {
        if self.steps & (CANCEL_POLL_STRIDE - 1) == 0 && self.cfg.cancel.is_cancelled() {
            return Err(SimError {
                cycle: self.cpus[i].time,
                cpu: Some(i),
                line: None,
                kind: SimErrorKind::Cancelled { step: self.steps },
            });
        }
        Ok(())
    }

    /// Post-loop epilogue shared by both loops: deadlock detection, write
    /// buffer drain into the final times, the final audit, and statistics
    /// assembly.
    fn finish<S: Spec>(&mut self) -> Result<SimStats, SimError> {
        let mut times = Vec::with_capacity(self.cpus.len());
        for (i, c) in self.cpus.iter_mut().enumerate() {
            if c.status != Status::Done {
                return Err(SimError {
                    cycle: c.time,
                    cpu: Some(i),
                    line: None,
                    kind: SimErrorKind::Deadlock {
                        waiting: format!("{:?}", c.status),
                        cursor: c.cursor,
                        stream_len: self.stream_len[i],
                    },
                });
            }
            let drained = c.time.max(c.wb1.drained_at()).max(c.wb2.drained_at());
            c.stats.dwrite_cycles.add(c.mode, drained - c.time);
            c.time = drained;
            times.push(c.time);
        }
        if !self.s_audit_off::<S>() && self.cfg.audit >= AuditLevel::Final {
            self.audit_final()?;
        }
        Ok(SimStats {
            cpus: self.cpus.iter().map(|c| c.stats.clone()).collect(),
            bus: *self.bus.stats(),
            cpu_times: times,
        })
    }

    fn pick_next(&self) -> Option<usize> {
        let mut best: Option<usize> = None;
        for (i, c) in self.cpus.iter().enumerate() {
            if c.status == Status::Runnable {
                match best {
                    Some(b) if self.cpus[b].time <= c.time => {}
                    _ => best = Some(i),
                }
            }
        }
        best
    }

    /// [`Machine::pick_next`] and the runner-up in one scan, for the
    /// batched loop: returns the scheduled CPU plus the lexicographically
    /// smallest `(time, index)` among the *other* runnable CPUs. The
    /// scheduled CPU stays the scheduler's choice exactly while its own
    /// `(time, index)` precedes that runner-up.
    fn pick_two(&self) -> Option<(usize, Option<(u64, usize)>)> {
        let mut best: Option<(u64, usize)> = None;
        let mut second: Option<(u64, usize)> = None;
        for (j, c) in self.cpus.iter().enumerate() {
            if c.status != Status::Runnable {
                continue;
            }
            let cand = (c.time, j);
            match best {
                None => best = Some(cand),
                Some(b) if cand < b => {
                    second = Some(b);
                    best = Some(cand);
                }
                _ => {
                    if second.is_none_or(|s| cand < s) {
                        second = Some(cand);
                    }
                }
            }
        }
        best.map(|(_, i)| (i, second))
    }

    /// Reserves CPU `i`'s L2 port at `t` for `occupancy` cycles; returns
    /// the grant time. Buffered writes serialize on the port; demand reads
    /// have priority ("reads bypass writes", §2.4) and pay only the port's
    /// residual occupancy, bounded by one service slot.
    fn l2_port(&mut self, i: usize, t: u64, occupancy: u64) -> u64 {
        let grant = self.cpus[i].l2_port_free.max(t);
        self.cpus[i].l2_port_free = grant + occupancy;
        grant
    }

    /// Port delay seen by a priority (demand-read) access at `t`: at most
    /// one in-progress write slot.
    fn l2_read_delay(&self, i: usize, t: u64) -> u64 {
        (self.cpus[i].l2_port_free.saturating_sub(t)).min(self.cfg.timing.l2_write)
    }

    // ---- accounting -----------------------------------------------------

    #[inline]
    pub(crate) fn advance(&mut self, i: usize, cycles: u64, bucket: Bucket) {
        if cycles == 0 {
            return;
        }
        let c = &mut self.cpus[i];
        c.time += cycles;
        let mode = c.mode;
        let in_blk = c.block.is_some();
        match bucket {
            Bucket::Exec => {
                c.stats.exec_cycles.add(mode, cycles);
                if in_blk {
                    c.stats.blk_exec_cycles += cycles;
                }
            }
            Bucket::IMiss => c.stats.imiss_cycles.add(mode, cycles),
            Bucket::DRead => {
                c.stats.dread_cycles.add(mode, cycles);
                if in_blk {
                    c.stats.blk_read_stall += cycles;
                }
            }
            Bucket::DWrite => {
                c.stats.dwrite_cycles.add(mode, cycles);
                if in_blk {
                    c.stats.blk_write_stall += cycles;
                }
            }
            Bucket::Pref => c.stats.pref_cycles.add(mode, cycles),
            Bucket::Sync => c.stats.sync_cycles.add(mode, cycles),
        }
    }

    // ---- main dispatch ---------------------------------------------------

    /// Replays one event of CPU `i`. Returns `true` when the event may have
    /// changed *another* CPU's clock or scheduling status (or this CPU's
    /// own schedulability) — the batched loop's signal to rescan.
    fn step<S: Spec>(&mut self, i: usize) -> Result<bool, SimError> {
        self.steps += 1;
        let n = self.stream_len[i];
        if self.cpus[i].cursor >= n {
            self.cpus[i].status = Status::Done;
            return Ok(true);
        }
        let ev = self.fetch_event(i, self.cpus[i].cursor);
        self.dispatch_ev::<S>(i, ev, n)
    }

    /// Returns merged event `idx` of CPU `i`'s stream: a hit when `idx`
    /// falls in the window's `[lo, hi)` range, otherwise fills the
    /// containing merged chunk into the window —
    /// cursors advance monotonically chunk by chunk, so the common case is
    /// a window hit, and bounded scans (lock-retry re-fetch, the DMA
    /// bracket skip) stay within one or two chunk fills. With the
    /// decode-ahead helper attached, the cold swap-in consumes a ready
    /// buffer when the helper got there first (see
    /// [`Machine::swap_in_chunk`]).
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range — callers check against
    /// `stream_len` first.
    #[inline]
    pub(crate) fn fetch_event(&mut self, i: usize, idx: usize) -> Event {
        let w = &self.windows[i];
        let off = idx.wrapping_sub(w.lo);
        if off < w.events.len() {
            return w.events[off];
        }
        let c = self.streams[i].chunk_of(idx);
        self.swap_in_chunk(i, c);
        let w = &self.windows[i];
        w.events[idx - w.lo]
    }

    /// The cold half of [`Machine::fetch_event`]: makes merged chunk
    /// `c` resident in CPU `i`'s decode window.
    ///
    /// With the decode-ahead mailbox live, first consume the CPU's ready
    /// slot — a matching buffer swaps in by pointer exchange (the old
    /// window buffer is recycled as a spare), a stale one is recycled —
    /// and request the *next* chunk so the helper stays one chunk ahead of
    /// the cursor. Any miss (cold first chunk, backward scan, helper
    /// outrun) falls back to a synchronous, timed fill. Either way the
    /// window ends up holding exactly what [`MergedStream::try_fill`]
    /// makes of chunk `c` — fill purity is what keeps the two paths
    /// indistinguishable to the replay.
    #[cold]
    fn swap_in_chunk(&mut self, i: usize, c: usize) {
        let s = &self.streams[i];
        let w = &mut self.windows[i];
        let mut resident = false;
        if let Some(pf) = &self.prefetch {
            let mut st = pf.lock();
            if let Some((rc, buf)) = st.ready[i].take() {
                if rc == c {
                    let old = std::mem::replace(&mut w.events, buf);
                    st.spares.push(old);
                    resident = true;
                    self.prefetch_hits += 1;
                } else {
                    st.spares.push(buf);
                }
            }
            let next = c + 1;
            if next < s.n_chunks() && w.requested != next {
                st.requests.push_back((i, next));
                w.requested = next;
                pf.cv.notify_one();
            }
        }
        if !resident {
            let t0 = Instant::now();
            if let Err(e) = s.try_fill(c, &mut w.events) {
                panic!("{e}");
            }
            self.decode_ns += t0.elapsed().as_nanos() as u64;
            self.sync_decodes += 1;
        }
        w.lo = s.chunk_start(c);
    }

    /// CPU `i`'s merged stream length (hoisted at assembly).
    #[inline]
    pub(crate) fn stream_len_of(&self, i: usize) -> usize {
        self.stream_len[i]
    }

    /// The per-event dispatch shared by [`Machine::step`] and the batched
    /// loop. Both
    /// callers have already counted the step and ruled out end-of-stream;
    /// `stream_len` is passed in so the post-event Done check does not
    /// re-dereference the stream.
    fn dispatch_ev<S: Spec>(
        &mut self,
        i: usize,
        ev: Event,
        stream_len: usize,
    ) -> Result<bool, SimError> {
        let t_before = self.cpus[i].time;
        let mut resched = false;
        match ev {
            Event::SetMode { mode } => {
                self.cpus[i].mode = mode;
                self.cpus[i].cursor += 1;
            }
            Event::Idle { cycles } => {
                let c = &mut self.cpus[i];
                c.time += u64::from(cycles);
                c.stats.idle_cycles += u64::from(cycles);
                c.cursor += 1;
            }
            Event::Exec { block } => {
                // `Machine::new` validated every block id; re-check so a
                // trace mutated after validation still cannot panic here.
                let Some(&bb) = self.trace.meta.code.try_block(block) else {
                    return Err(SimError {
                        cycle: self.cpus[i].time,
                        cpu: Some(i),
                        line: None,
                        kind: SimErrorKind::UnknownBlock { block: block.0 },
                    });
                };
                self.cpus[i].cur_site = bb.site.0;
                self.fetch_code::<S>(i, &bb);
                self.advance(i, u64::from(bb.instrs), Bucket::Exec);
                self.cpus[i].cursor += 1;
            }
            Event::Read { addr, class } => {
                self.handle_read::<S>(i, addr, class);
                self.cpus[i].cursor += 1;
            }
            Event::Write { addr, class } => {
                self.handle_write::<S>(i, addr, class);
                self.cpus[i].cursor += 1;
            }
            Event::Prefetch { addr, class } => {
                // One inserted prefetch instruction.
                self.advance(i, 1, Bucket::Exec);
                self.issue_prefetch::<S>(i, addr, class);
                self.cpus[i].cursor += 1;
            }
            Event::LockAcquire { lock, addr } => {
                let idx = usize::from(lock.0);
                if idx >= self.locks.len() {
                    self.locks.resize(idx + 1, LockSlot::Unknown);
                }
                if let LockSlot::Held(_) = self.locks[idx] {
                    let t = self.cpus[i].time;
                    self.cpus[i].status = Status::OnLock(lock.0, t);
                    resched = true;
                } else {
                    self.locks[idx] = LockSlot::Held(i);
                    // test-and-set: read then write the lock word
                    self.demand_read::<S>(i, addr, DataClass::LockVar);
                    self.demand_write::<S>(i, addr, DataClass::LockVar);
                    self.cpus[i].cursor += 1;
                }
            }
            Event::LockRelease { lock, addr } => {
                resched = true;
                self.demand_write::<S>(i, addr, DataClass::LockVar);
                let release = self.cpus[i].time;
                let line = addr.line(self.cfg.l2.line);
                let slot = self
                    .locks
                    .get(usize::from(lock.0))
                    .copied()
                    .unwrap_or_default();
                if slot == LockSlot::Unknown {
                    return Err(SimError {
                        cycle: release,
                        cpu: Some(i),
                        line: Some(line),
                        kind: SimErrorKind::LockReleaseUnknown { lock: lock.0 },
                    });
                }
                if slot != LockSlot::Held(i) {
                    let holder = match slot {
                        LockSlot::Held(h) => Some(h),
                        _ => None,
                    };
                    return Err(SimError {
                        cycle: release,
                        cpu: Some(i),
                        line: Some(line),
                        kind: SimErrorKind::LockReleaseByNonHolder {
                            lock: lock.0,
                            holder,
                        },
                    });
                }
                self.locks[usize::from(lock.0)] = LockSlot::Free;
                for j in 0..self.cpus.len() {
                    if let Status::OnLock(l, _since) = self.cpus[j].status {
                        if l == lock.0 {
                            let wait = release.saturating_sub(self.cpus[j].time);
                            self.cpus[j].status = Status::Runnable;
                            self.advance(j, wait, Bucket::Sync);
                            *self.cpus[j]
                                .stats
                                .lock_wait_cycles
                                .entry(lock.0)
                                .or_insert(0) += wait;
                        }
                    }
                }
                self.cpus[i].cursor += 1;
            }
            Event::Barrier {
                barrier,
                addr,
                participants,
            } => {
                resched = true;
                // arrival: fetch-and-increment of the barrier word
                self.demand_read::<S>(i, addr, DataClass::BarrierVar);
                self.demand_write::<S>(i, addr, DataClass::BarrierVar);
                self.cpus[i].cursor += 1;
                let idx = usize::from(barrier.0);
                if idx >= self.barriers.len() {
                    self.barriers.resize_with(idx + 1, BarrierState::default);
                }
                let st = &mut self.barriers[idx];
                st.arrived.push(i);
                let done = st.arrived.len() >= participants as usize;
                let arrived = if done {
                    std::mem::take(&mut st.arrived)
                } else {
                    Vec::new()
                };
                if !done {
                    let t = self.cpus[i].time;
                    self.cpus[i].status = Status::AtBarrier(barrier.0, t);
                } else {
                    let release = self.cpus[i].time;
                    for j in arrived {
                        if j == i {
                            continue;
                        }
                        let wait = release.saturating_sub(self.cpus[j].time);
                        self.cpus[j].status = Status::Runnable;
                        self.advance(j, wait, Bucket::Sync);
                        // resume: re-read the barrier word (a coherence miss
                        // under invalidation, a hit under updates)
                        self.demand_read::<S>(j, addr, DataClass::BarrierVar);
                    }
                }
            }
            Event::BlockOpBegin { op } => {
                resched = true;
                self.begin_block_op::<S>(i, op)?;
            }
            Event::BlockOpEnd => {
                self.end_block_op::<S>(i);
                self.cpus[i].cursor += 1;
            }
        }
        if self.cpus[i].cursor >= stream_len && self.cpus[i].status == Status::Runnable {
            self.cpus[i].status = Status::Done;
            resched = true;
        }
        if !self.s_audit_off::<S>() && self.cfg.audit == AuditLevel::Strict {
            self.audit_step(i, t_before, &ev)?;
        }
        Ok(resched)
    }

    // ---- instruction fetch ----------------------------------------------

    fn fetch_code<S: Spec>(&mut self, i: usize, bb: &BasicBlock) {
        let line = self.cfg.l1i.line;
        let mut a = bb.start.line(line).0;
        let end = bb.end().0;
        // Fast path: walk the block's lines under one CPU borrow until the
        // first miss (usually never — code re-executes hot blocks). Probing
        // a missing line has no side effect, so the slow loop below may
        // safely re-probe it.
        {
            let c = &mut self.cpus[i];
            while a < end {
                if c.l1i.probe(LineAddr(a)).is_none() {
                    break;
                }
                a += line;
            }
        }
        while a < end {
            let l = LineAddr(a);
            if self.cpus[i].l1i.probe(l).is_none() {
                let mode = self.cpus[i].mode;
                self.cpus[i].stats.l1i_misses.add(mode, 1);
                let stall = self.fetch_into_l2_shared::<S>(i, Addr(a));
                self.advance(i, stall, Bucket::IMiss);
                // Fill L1I (code is read-only; state is just "valid").
                self.cpus[i]
                    .l1i
                    .fill(l, LineState::Shared, DataClass::KernelOther, false);
            }
            a += line;
        }
    }

    /// Ensures the L2 line containing `addr` is present (for code fetches);
    /// returns the stall beyond the 1-cycle base cost.
    fn fetch_into_l2_shared<S: Spec>(&mut self, i: usize, addr: Addr) -> u64 {
        let line2 = addr.line(self.cfg.l2.line);
        let now = self.cpus[i].time;
        if self.cpus[i].l2.probe(line2).is_some() {
            return self.l2_read_delay(i, now) + self.cfg.timing.l2_hit - 1;
        }
        let grant = self
            .bus
            .acquire(now, self.cfg.timing.line_transfer, BusOp::ReadLine);
        let any = self.snoop_read(i, line2);
        let state = if any {
            LineState::Shared
        } else {
            LineState::Exclusive
        };
        self.l2_fill::<S>(i, line2, state, DataClass::KernelOther, false);
        (grant - now) + self.cfg.timing.mem - 1
    }

    // ---- snooping ---------------------------------------------------------

    /// Bus read snoop: dirty remote copies are flushed (→ Shared); returns
    /// whether any remote cache holds the line (Illinois grants Exclusive
    /// otherwise).
    pub(crate) fn snoop_read(&mut self, i: usize, line2: LineAddr) -> bool {
        let mut any = false;
        for j in 0..self.cpus.len() {
            if j == i {
                continue;
            }
            let st = self.cpus[j].l2.state(line2);
            if st.is_valid() {
                any = true;
                if st.is_owned() {
                    self.cpus[j].l2.set_state(line2, LineState::Shared);
                }
            }
        }
        any
    }

    /// Bus write/upgrade snoop: invalidates all remote copies, recording
    /// the invalidation so later misses classify as coherence misses.
    pub(crate) fn snoop_write<S: Spec>(&mut self, i: usize, line2: LineAddr) {
        for j in 0..self.cpus.len() {
            if j == i {
                continue;
            }
            if self.cpus[j].l2.invalidate(line2).is_valid() {
                self.history
                    .record(CacheLevel::L2, j, line2, Departure::InvalidatedRemote);
                self.invalidate_l1_range::<S>(j, line2, Departure::InvalidatedRemote);
            }
        }
    }

    /// Firefly update snoop: remote copies stay valid (their data is
    /// refreshed on the bus); returns the number of remote sharers.
    pub(crate) fn snoop_update(&mut self, i: usize, line2: LineAddr) -> usize {
        let mut sharers = 0;
        for j in 0..self.cpus.len() {
            if j == i {
                continue;
            }
            if self.cpus[j].l2.contains(line2) {
                sharers += 1;
                // An owned remote copy becomes Shared: memory is updated.
                if self.cpus[j].l2.state(line2).is_owned() {
                    self.cpus[j].l2.set_state(line2, LineState::Shared);
                }
            }
        }
        sharers
    }

    /// Invalidates every L1 line covered by an L2 line (inclusion), with
    /// `why` recorded for the data cache.
    fn invalidate_l1_range<S: Spec>(&mut self, j: usize, line2: LineAddr, why: Departure) {
        let l1line = self.cfg.l1d.line;
        let mut a = line2.0;
        while a < line2.0 + self.cfg.l2.line {
            let l = LineAddr(a);
            if self.cpus[j].l1d.invalidate(l).is_valid() {
                self.history.record(CacheLevel::L1d, j, l, why);
                self.note_l1d_departure::<S>(j, l);
            }
            a += l1line;
        }
        // L1I lines too (no classification needed for code).
        let iline = self.cfg.l1i.line;
        let mut a = line2.0;
        while a < line2.0 + self.cfg.l2.line {
            self.cpus[j].l1i.invalidate(LineAddr(a));
            a += iline;
        }
    }

    // ---- fills -------------------------------------------------------------

    /// Installs a line in CPU `i`'s L2, handling victim write-back,
    /// inclusion invalidation, and history bookkeeping.
    pub(crate) fn l2_fill<S: Spec>(
        &mut self,
        i: usize,
        line2: LineAddr,
        state: LineState,
        class: DataClass,
        by_blockop: bool,
    ) {
        let evicted = self.cpus[i].l2.fill(line2, state, class, by_blockop);
        if let Some(ev) = evicted {
            if ev.state == LineState::Modified {
                let t = self.cpus[i].time;
                self.bus
                    .acquire(t, self.cfg.timing.line_transfer, BusOp::WriteBack);
            }
            let why = if ev.evicted_by_blockop {
                Departure::EvictedByBlockOp
            } else {
                Departure::Evicted
            };
            self.history.record(CacheLevel::L2, i, ev.line, why);
            self.invalidate_l1_range::<S>(i, ev.line, why);
        }
        self.history.forget(CacheLevel::L2, i, line2);
    }

    /// Installs a line in CPU `i`'s L1D.
    pub(crate) fn l1d_fill<S: Spec>(
        &mut self,
        i: usize,
        line1: LineAddr,
        class: DataClass,
        by_blockop: bool,
    ) {
        let l2_resident = self.cpus[i]
            .l2
            .contains(LineAddr(line1.0 & !(self.cfg.l2.line - 1)));
        let evicted = self.cpus[i]
            .l1d
            .fill(line1, LineState::Shared, class, by_blockop);
        self.note_l1d_fill::<S>(i, line1, l2_resident);
        if let Some(ev) = evicted {
            self.note_l1d_departure::<S>(i, ev.line);
            // The victim cache turns conflict misses into 2-cycle swaps.
            if self.cfg.victim_lines > 0 {
                let v = &mut self.cpus[i].victim;
                v.retain(|&l| l != ev.line);
                v.push(ev.line);
                if v.len() > self.cfg.victim_lines {
                    v.remove(0);
                }
            }
            let why = if ev.evicted_by_blockop {
                Departure::EvictedByBlockOp
            } else {
                Departure::Evicted
            };
            self.history.record(CacheLevel::L1d, i, ev.line, why);
            // Conflict-pair bookkeeping for the §6 analysis: which
            // kernel structure displaced which.
            if ev.class != class && ev.class.is_kernel_structure() && class.is_kernel_structure() {
                *self.cpus[i]
                    .stats
                    .conflict_pairs
                    .entry((ev.class, class))
                    .or_insert(0) += 1;
            }
        }
        self.history.forget(CacheLevel::L1d, i, line1);
        self.history.take(i, line1);
    }

    // ---- classification ----------------------------------------------------

    /// Computes how a miss on `line1` would classify, *without* counting it.
    /// (Counting happens either immediately at a demand miss or later when a
    /// partially-covered prefetch is consumed.)
    pub(crate) fn peek_classify(
        &self,
        i: usize,
        line1: LineAddr,
        line2: LineAddr,
        class: DataClass,
    ) -> PendingClass {
        let in_blk = self.cpus[i].block.is_some();
        let l1h = self.history.get(CacheLevel::L1d, i, line1);
        let l2_miss = !self.cpus[i].l2.contains(line2);
        let l2h = self.history.get(CacheLevel::L2, i, line2);
        let reused = self.history.contains(i, line1);
        let displaced = l1h == Some(Departure::EvictedByBlockOp)
            || (l2_miss && l2h == Some(Departure::EvictedByBlockOp));
        let kind = if in_blk {
            MissKind::BlockOp
        } else if l1h == Some(Departure::InvalidatedRemote)
            || (l2_miss && l2h == Some(Departure::InvalidatedRemote))
        {
            MissKind::Coherence(class.coherence_category())
        } else {
            MissKind::Other
        };
        PendingClass {
            kind,
            class,
            displaced,
            reused,
        }
    }

    /// Counts a classified read miss.
    pub(crate) fn count_miss(&mut self, i: usize, pc: PendingClass, stall: u64) {
        let mode = self.cpus[i].mode;
        let site = self.cpus[i].cur_site;
        let in_blk = self.cpus[i].block.is_some();
        let st = &mut self.cpus[i].stats;
        st.l1d_read_misses.add(mode, 1);
        if pc.displaced {
            if in_blk {
                st.displ_inside += 1;
            } else {
                st.displ_outside += 1;
                st.blk_displ_stall += stall;
            }
        }
        if pc.reused {
            if in_blk {
                st.reuse_inside += 1;
            } else {
                st.reuse_outside += 1;
            }
        }
        if mode.is_os() {
            st.count_os_miss(pc.kind, site, pc.class);
        }
    }

    // ---- demand read ---------------------------------------------------------

    fn handle_read<S: Spec>(&mut self, i: usize, addr: Addr, class: DataClass) {
        match (self.cpus[i].block.is_some(), self.cfg.block_scheme) {
            (true, BlockOpScheme::Bypass) => self.bypass_read::<S>(i, addr, class),
            (true, BlockOpScheme::ByPref) => self.bypref_read::<S>(i, addr, class),
            (true, BlockOpScheme::Pref) => {
                self.pref_lookahead::<S>(i, addr, class);
                self.demand_read::<S>(i, addr, class);
            }
            _ => self.demand_read::<S>(i, addr, class),
        }
    }

    fn handle_write<S: Spec>(&mut self, i: usize, addr: Addr, class: DataClass) {
        match (self.cpus[i].block.is_some(), self.cfg.block_scheme) {
            (true, BlockOpScheme::Bypass) => self.bypass_write::<S>(i, addr, class),
            _ => self.demand_write::<S>(i, addr, class),
        }
    }

    /// The ordinary cached read path.
    pub(crate) fn demand_read<S: Spec>(&mut self, i: usize, addr: Addr, class: DataClass) {
        let line1 = addr.line(self.cfg.l1d.line);
        let line2 = addr.line(self.cfg.l2.line);
        // Single borrow of the CPU for the hit path: the common case (L1D
        // hit, no pending prefetch) touches nothing else, so keeping one
        // `&mut` avoids re-indexing `self.cpus[i]` per field access.
        let c = &mut self.cpus[i];
        c.stats.dreads.add(c.mode, 1);
        let now = c.time;

        // In-flight or completed prefetch?
        if let Some((ready, pc)) = c.mshr.take_with(line1) {
            if ready <= now {
                c.stats.prefetch_full_hits += 1;
                return; // fully hidden: not a miss
            }
            let stall = ready - now;
            c.stats.prefetch_partial_hits += 1;
            if let Some(pc) = pc {
                self.count_miss(i, pc, stall);
            }
            self.advance(i, stall, Bucket::Pref);
            return;
        }

        if c.l1d.probe(line1).is_some() {
            return; // primary-cache hit, 1 cycle already in Exec
        }
        // Victim-cache hit: swap back into the L1D for a 2-cycle penalty;
        // the conflict miss is avoided entirely.
        if self.cfg.victim_lines > 0 {
            if let Some(pos) = self.cpus[i].victim.iter().position(|&l| l == line1) {
                self.cpus[i].victim.remove(pos);
                self.l1d_fill::<S>(i, line1, class, self.cpus[i].block.is_some());
                self.advance(i, 2, Bucket::DRead);
                return;
            }
        }
        // Read forwarding from still-pending (undrained) writes.
        self.cpus[i].wb1.drain(now);
        self.cpus[i].wb2.drain(now);
        if self.cpus[i].wb1.pending(addr.0) || self.cpus[i].wb2.pending(line2.0) {
            return;
        }

        // Primary-cache read miss.
        let pc = self.peek_classify(i, line1, line2, class);
        let stall = if self.cpus[i].l2.probe(line2).is_some() {
            self.l2_read_delay(i, now) + self.cfg.timing.l2_hit - 1
        } else {
            let grant = self
                .bus
                .acquire(now, self.cfg.timing.line_transfer, BusOp::ReadLine);
            let any = self.snoop_read(i, line2);
            let state = if any {
                LineState::Shared
            } else {
                LineState::Exclusive
            };
            let by_blk = self.cpus[i].block.is_some();
            self.l2_fill::<S>(i, line2, state, class, by_blk);
            (grant - now) + self.cfg.timing.mem - 1
        };
        let by_blk = self.cpus[i].block.is_some();
        self.l1d_fill::<S>(i, line1, class, by_blk);
        self.count_miss(i, pc, stall);
        self.advance(i, stall, Bucket::DRead);
    }

    // ---- demand write -----------------------------------------------------------

    /// The ordinary write path: write-through, write-allocate L1, a word
    /// write buffer to the L2, and a line write buffer to the bus for
    /// writes that need it (§4.1.2). The processor stalls only on buffer
    /// overflow (release consistency). Write allocation is what lets a
    /// block operation's destination displace cached data (§4.1.3) and
    /// lets later reads of freshly-written blocks hit.
    pub(crate) fn demand_write<S: Spec>(&mut self, i: usize, addr: Addr, class: DataClass) {
        let mode = self.cpus[i].mode;
        self.cpus[i].stats.dwrites.add(mode, 1);
        let line1 = addr.line(self.cfg.l1d.line);
        let line2 = addr.line(self.cfg.l2.line);

        // Stall if the word buffer is full.
        let now = self.cpus[i].time;
        let stall = self.cpus[i].wb1.stall_for_slot(now);
        self.advance(i, stall, Bucket::DWrite);
        let now = self.cpus[i].time;
        self.cpus[i].wb1.drain(now);

        // Drain in order behind older entries.
        let serv_start = now.max(self.cpus[i].wb1.last_completion());
        let by_blk = self.cpus[i].block.is_some();
        let complete = self.l2_side_write::<S>(i, line2, serv_start, class, by_blk);
        self.cpus[i].wb1.push(addr.0, complete);
        // Write-allocate: the line is installed in the L1 in the
        // background (posted, so it adds no processor stall).
        if !self.cpus[i].l1d.contains(line1) {
            self.l1d_fill::<S>(i, line1, class, by_blk);
        }
    }

    /// Handles the L2/bus side of one buffered write; returns the drain
    /// completion time.
    fn l2_side_write<S: Spec>(
        &mut self,
        i: usize,
        line2: LineAddr,
        t: u64,
        class: DataClass,
        by_blockop: bool,
    ) -> u64 {
        let timing = self.cfg.timing;
        let update = self.cfg.update_pages.contains(line2.page());
        match self.cpus[i].l2.state(line2) {
            LineState::Modified => self.l2_port(i, t, timing.l2_write) + timing.l2_write,
            LineState::Exclusive => {
                self.cpus[i].l2.set_state(line2, LineState::Modified);
                self.l2_port(i, t, timing.l2_write) + timing.l2_write
            }
            LineState::Shared => {
                let t2 = t + self.cpus[i].wb2.stall_for_slot(t);
                self.cpus[i].wb2.drain(t2);
                if update {
                    // Firefly: broadcast the word; sharers stay valid.
                    let grant = self.bus.acquire(t2, timing.update_word, BusOp::UpdateWord);
                    let sharers = self.snoop_update(i, line2);
                    if sharers == 0 {
                        self.cpus[i].l2.set_state(line2, LineState::Modified);
                    }
                    let complete = grant + timing.update_word;
                    self.cpus[i].wb2.push(line2.0, complete);
                    complete
                } else {
                    // Illinois: invalidation signal, then write locally.
                    let grant = self.bus.acquire(t2, timing.inval_signal, BusOp::Invalidate);
                    self.snoop_write::<S>(i, line2);
                    self.cpus[i].l2.set_state(line2, LineState::Modified);
                    let complete = grant + timing.inval_signal;
                    self.cpus[i].wb2.push(line2.0, complete);
                    complete
                }
            }
            LineState::Invalid => {
                // Merge with a pending write to the same line.
                if self.cpus[i].wb2.pending(line2.0) {
                    return self.cpus[i].wb2.last_completion().max(t);
                }
                let t2 = t + self.cpus[i].wb2.stall_for_slot(t);
                self.cpus[i].wb2.drain(t2);
                if update {
                    // Fetch the line; remote copies stay valid and receive
                    // the written word on the bus.
                    let grant = self.bus.acquire(t2, timing.line_transfer, BusOp::ReadLine);
                    let sharers = self.snoop_update(i, line2);
                    let state = if sharers > 0 {
                        LineState::Shared
                    } else {
                        LineState::Modified
                    };
                    self.l2_fill::<S>(i, line2, state, class, by_blockop);
                    let complete = grant + timing.mem;
                    self.cpus[i].wb2.push(line2.0, complete);
                    complete
                } else {
                    // Write-allocate: read-exclusive fetch.
                    let grant = self
                        .bus
                        .acquire(t2, timing.line_transfer, BusOp::ReadExclusive);
                    self.snoop_write::<S>(i, line2);
                    self.l2_fill::<S>(i, line2, LineState::Modified, class, by_blockop);
                    let complete = grant + timing.mem;
                    self.cpus[i].wb2.push(line2.0, complete);
                    complete
                }
            }
        }
    }

    // ---- prefetch -----------------------------------------------------------

    /// Issues a software prefetch of `addr`'s line into L1D + L2.
    pub(crate) fn issue_prefetch<S: Spec>(&mut self, i: usize, addr: Addr, class: DataClass) {
        let line1 = addr.line(self.cfg.l1d.line);
        let line2 = addr.line(self.cfg.l2.line);
        let now = self.cpus[i].time;
        self.cpus[i].stats.prefetches_issued += 1;
        if self.cpus[i].l1d.contains(line1) || self.cpus[i].mshr.pending(line1).is_some() {
            return;
        }
        if self.cpus[i].mshr.in_flight(now) >= self.cfg.max_prefetches {
            return; // all MSHRs busy: drop
        }
        let pc = self.peek_classify(i, line1, line2, class);
        let ready = if self.cpus[i].l2.contains(line2) {
            now + self.cfg.timing.l2_hit
        } else {
            let grant = self
                .bus
                .acquire(now, self.cfg.timing.line_transfer, BusOp::ReadLine);
            let any = self.snoop_read(i, line2);
            let state = if any {
                LineState::Shared
            } else {
                LineState::Exclusive
            };
            let by_blk = self.cpus[i].block.is_some();
            self.l2_fill::<S>(i, line2, state, class, by_blk);
            grant + self.cfg.timing.mem
        };
        let by_blk = self.cpus[i].block.is_some();
        self.l1d_fill::<S>(i, line1, class, by_blk);
        let inserted = self.cpus[i].mshr.insert_with(now, line1, ready, pc);
        debug_assert!(inserted, "MSHR capacity checked above");
    }

    /// Total events processed (diagnostics).
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// An order-deterministic FNV-1a digest of the machine's complete
    /// timing-relevant state: per-CPU clocks, cursors, modes, scheduling
    /// statuses, cache contents and MESI states, victim-cache and
    /// write-buffer contents, in-flight prefetches, bus occupancy and
    /// traffic, and lock/barrier tables.
    ///
    /// Two machines that replayed the same trace through behaviorally
    /// identical loops digest identically; the differential harnesses use
    /// this (after [`Machine::run_mut`]) to pin *final machine state*, not
    /// just returned statistics. Record-only bookkeeping (departure
    /// histories, bypass marks) is deliberately excluded — it never feeds
    /// back into state or timing.
    pub fn state_digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut put = |h: &mut u64, v: u64| {
            for byte in v.to_le_bytes() {
                *h ^= u64::from(byte);
                *h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        let cache = |h: &mut u64, put: &mut dyn FnMut(&mut u64, u64), c: &Cache| {
            for (l, st) in c.valid_lines() {
                put(h, u64::from(l.0));
                put(h, st as u64);
            }
            put(h, u64::MAX); // cache delimiter
        };
        for c in &self.cpus {
            put(&mut h, c.time);
            put(&mut h, c.l2_port_free);
            put(&mut h, c.cursor as u64);
            put(&mut h, u64::from(c.mode.is_os()));
            let (s, a, b) = match c.status {
                Status::Runnable => (0u64, 0u64, 0u64),
                Status::OnLock(l, t) => (1, u64::from(l), t),
                Status::AtBarrier(bar, t) => (2, u64::from(bar), t),
                Status::Done => (3, 0, 0),
            };
            put(&mut h, s);
            put(&mut h, a);
            put(&mut h, b);
            cache(&mut h, &mut put, &c.l1i);
            cache(&mut h, &mut put, &c.l1d);
            cache(&mut h, &mut put, &c.l2);
            for &v in &c.victim {
                put(&mut h, u64::from(v.0));
            }
            put(&mut h, u64::MAX);
            for t in c.wb1.completions() {
                put(&mut h, t);
            }
            for t in c.wb2.completions() {
                put(&mut h, t);
            }
            put(&mut h, c.wb1.drained_at());
            put(&mut h, c.wb2.drained_at());
            for (l, r) in c.mshr.snapshot() {
                put(&mut h, u64::from(l.0));
                put(&mut h, r);
            }
            for (l, r) in c.pbuf.snapshot() {
                put(&mut h, u64::from(l.0));
                put(&mut h, r);
            }
            put(&mut h, u64::MAX); // cpu delimiter
        }
        put(&mut h, self.bus.free_at());
        let bs = self.bus.stats();
        put(&mut h, bs.transactions());
        put(&mut h, bs.busy_cycles);
        for slot in &self.locks {
            let v = match slot {
                LockSlot::Unknown => 0u64,
                LockSlot::Free => 1,
                LockSlot::Held(i) => 2 + *i as u64,
            };
            put(&mut h, v);
        }
        for b in &self.barriers {
            for &j in &b.arrived {
                put(&mut h, j as u64);
            }
            put(&mut h, u64::MAX);
        }
        put(&mut h, self.steps);
        h
    }
}
