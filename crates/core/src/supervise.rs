//! Supervision layer for experiment runs: failure policy, the run
//! journal, and the soft-deadline watchdog.
//!
//! The paper's full reproduction is a multi-minute fan-out over ~34
//! independent cells ([`crate::runner::run_cells_supervised`]). Before this layer, a
//! single failing cell discarded every completed one, a worker panic tore
//! the whole process down, and a killed run restarted from zero. The
//! supervision layer (DESIGN.md §13) makes runs survivable:
//!
//! * [`RunPolicy`] — per-cell panic isolation, bounded retry with
//!   exponential backoff, an optional soft deadline enforced by a
//!   watchdog thread that *flags* (never kills) overrunning cells, and
//!   a deterministic seeded panic-injection hook
//!   ([`oscache_memsys::faults::CellFault`]) for exercising all of it.
//! * [`CellFailure`] — the typed per-cell failure
//!   (`Panic | Sim | Timeout`) that replaces process aborts; a supervised
//!   run returns `Ok(outcome) | Err(failure)` per slot so callers can
//!   render every table whose cells completed (`repro --keep-going`).
//! * [`Journal`] — a crash-safe JSONL run journal: one self-contained
//!   record per completed cell, appended as one line the moment the cell
//!   finishes, so `repro --journal <path> --resume` replays completed
//!   cells instead of re-simulating them and a killed run loses at most
//!   the cells that were in flight (plus one torn line, which resume
//!   drops).
//!
//! Everything here is dependency-free: the journal's JSON is written and
//! parsed by the small hand-rolled codec at the bottom of this module
//! (records hold only objects, arrays, strings, and integers — `u64`
//! counters round-trip exactly because numbers are kept as text until a
//! typed accessor parses them).

use crate::runner::Cell;
use oscache_memsys::faults::CellFault;
use oscache_memsys::{BusStats, CancelToken, CpuStats, ModeSplit, SimError, SimStats};
use oscache_trace::DataClass;
use oscache_workloads::BuildOptions;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Locks `m`, recovering the guard if a previous holder panicked.
///
/// Every shared structure the supervised runner touches is either
/// write-once or append-only, so a panicking holder can never leave it in
/// an inconsistent state — recovering the lock is what lets one panicked
/// cell *not* wedge every other cell of the run.
pub(crate) fn lock_tolerant<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

// ---------------------------------------------------------------------------
// Policy and failures
// ---------------------------------------------------------------------------

/// What the watchdog does to an attempt that outlives the soft
/// deadline.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Escalation {
    /// Record an [`Overrun`] and let the attempt keep running — the
    /// historical behavior and the default, so existing CLI runs are
    /// unchanged.
    #[default]
    FlagOnly,
    /// Record the overrun at the deadline, then trip the attempt's
    /// [`CancelToken`] once it has also outlived `grace_ms` more
    /// milliseconds. The machine's event loop observes the token and the
    /// attempt dies as [`FailureCause::Timeout`] within a bounded delay
    /// (cancellation is cooperative: polled every ~1k simulated events,
    /// plus any non-cancellable analysis pass in flight).
    CancelAfterGrace {
        /// Extra milliseconds past the soft deadline before the kill.
        grace_ms: u64,
    },
}

/// How a supervised fan-out treats failing cells.
#[derive(Clone, Debug, Default)]
pub struct RunPolicy {
    /// Retries granted to a failing cell beyond its first attempt. A cell
    /// fails for good only after `max_retries + 1` attempts.
    pub max_retries: u32,
    /// Base backoff before retry `n`, slept as `backoff_ms << n`
    /// milliseconds (capped at one second). Zero disables sleeping.
    pub backoff_ms: u64,
    /// Soft per-cell deadline in milliseconds: a watchdog thread flags
    /// attempts that run longer (and, under
    /// [`Escalation::CancelAfterGrace`], cancels them). `None` disables
    /// the watchdog.
    pub soft_deadline_ms: Option<u64>,
    /// What the watchdog does beyond flagging an overrun.
    pub escalation: Escalation,
    /// Deterministic panic injection (tests, CI fault smoke): attempts it
    /// [`CellFault::fires`] on panic inside the supervised region.
    pub inject: Option<CellFault>,
}

impl RunPolicy {
    /// The non-supervised default: no retries, no watchdog, no injection.
    /// Panic isolation and typed failures still apply, but nothing is
    /// retried.
    pub fn fail_fast() -> Self {
        RunPolicy::default()
    }

    /// The watchdog's kill grace period, when escalation requests one.
    pub fn grace(&self) -> Option<Duration> {
        match self.escalation {
            Escalation::FlagOnly => None,
            Escalation::CancelAfterGrace { grace_ms } => Some(Duration::from_millis(grace_ms)),
        }
    }

    /// The backoff before retry attempt `n` (attempt 0 is the first try).
    pub fn backoff(&self, attempt: u32) -> Duration {
        if self.backoff_ms == 0 {
            return Duration::ZERO;
        }
        let ms = self
            .backoff_ms
            .saturating_mul(1u64 << attempt.min(16))
            .min(1_000);
        Duration::from_millis(ms)
    }
}

/// Why a cell attempt failed.
#[derive(Clone, Debug)]
pub enum FailureCause {
    /// The cell's worker panicked; the payload is the panic message.
    Panic(String),
    /// The simulator rejected the cell with a typed error.
    Sim(SimError),
    /// The attempt outlived its deadline and was cooperatively cancelled:
    /// either the watchdog escalated under
    /// [`Escalation::CancelAfterGrace`], or a service request's deadline
    /// (or its client's disappearance) tripped the cell's
    /// [`CancelToken`]. Under the default [`Escalation::FlagOnly`] policy
    /// overruns are still only flagged and this cause is never produced.
    Timeout,
}

impl FailureCause {
    /// A short stable class label for structured stderr lines.
    pub fn class(&self) -> &'static str {
        match self {
            FailureCause::Panic(_) => "panic",
            FailureCause::Sim(_) => "simulation",
            FailureCause::Timeout => "timeout",
        }
    }
}

impl std::fmt::Display for FailureCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FailureCause::Panic(msg) => write!(f, "panic: {msg}"),
            FailureCause::Sim(e) => write!(f, "simulation error: {e}"),
            FailureCause::Timeout => write!(f, "deadline exceeded"),
        }
    }
}

/// One cell's terminal failure after every retry was spent.
#[derive(Clone, Debug)]
pub struct CellFailure {
    /// The cell that failed.
    pub cell: Cell,
    /// The last attempt index (0-based; equals the policy's `max_retries`
    /// when retries were granted and all of them failed).
    pub attempt: u32,
    /// What the last attempt died of.
    pub cause: FailureCause,
}

impl std::fmt::Display for CellFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "cell {} failed on attempt {}: {}",
            self.cell.key(),
            self.attempt,
            self.cause
        )
    }
}

// ---------------------------------------------------------------------------
// Watchdog
// ---------------------------------------------------------------------------

/// A soft-deadline overrun flagged by the watchdog. The attempt kept
/// running (and may well have completed); the flag is advisory.
#[derive(Clone, Debug)]
pub struct Overrun {
    /// Run-cache key of the overrunning cell.
    pub key: String,
    /// Attempt index that overran.
    pub attempt: u32,
    /// The policy's soft deadline, in milliseconds.
    pub deadline_ms: u64,
    /// How long the attempt had been running when it was flagged.
    pub elapsed_ms: f64,
}

/// Watches in-flight cell attempts and flags the ones that outlive the
/// soft deadline — and, when built with a grace period
/// ([`Escalation::CancelAfterGrace`]), trips each overrunning attempt's
/// [`CancelToken`] once the grace is also spent. Runs on its own thread
/// inside the fan-out's scope; workers register attempts via
/// [`Watchdog::watch`] (an RAII guard deregisters on completion —
/// including by unwinding).
pub(crate) struct Watchdog {
    deadline: Duration,
    grace: Option<Duration>,
    state: Mutex<WatchState>,
    cv: Condvar,
}

struct WatchState {
    active: HashMap<u64, ActiveAttempt>,
    next_token: u64,
    overruns: Vec<Overrun>,
    done: bool,
}

struct ActiveAttempt {
    key: String,
    attempt: u32,
    started: Instant,
    flagged: bool,
    cancel: CancelToken,
    killed: bool,
}

impl Watchdog {
    pub(crate) fn new(deadline: Duration, grace: Option<Duration>) -> Self {
        Watchdog {
            deadline,
            grace,
            state: Mutex::new(WatchState {
                active: HashMap::new(),
                next_token: 0,
                overruns: Vec::new(),
                done: false,
            }),
            cv: Condvar::new(),
        }
    }

    /// Registers one attempt; dropping the guard deregisters it. `cancel`
    /// is the token the attempt's machine polls — inert under flag-only
    /// escalation, in which case the kill path is unreachable.
    pub(crate) fn watch(&self, key: &str, attempt: u32, cancel: CancelToken) -> WatchGuard<'_> {
        let mut st = lock_tolerant(&self.state);
        let token = st.next_token;
        st.next_token += 1;
        st.active.insert(
            token,
            ActiveAttempt {
                key: key.to_string(),
                attempt,
                started: Instant::now(),
                flagged: false,
                cancel,
                killed: false,
            },
        );
        WatchGuard { dog: self, token }
    }

    /// The watchdog loop: scan every quarter-deadline (bounded by half the
    /// grace period, so escalation lands within one grace of the
    /// deadline), flag overruns once per attempt, cancel flagged attempts
    /// whose grace is spent, exit when [`Watchdog::shutdown`] is
    /// signalled.
    pub(crate) fn run(&self) {
        let mut tick = self.deadline / 4;
        if let Some(g) = self.grace {
            tick = tick.min(g / 2);
        }
        let tick = tick.max(Duration::from_millis(1));
        let mut st = lock_tolerant(&self.state);
        while !st.done {
            let (guard, _) = self
                .cv
                .wait_timeout(st, tick)
                .unwrap_or_else(PoisonError::into_inner);
            st = guard;
            let now = Instant::now();
            let WatchState {
                active, overruns, ..
            } = &mut *st;
            for a in active.values_mut() {
                let elapsed = now.duration_since(a.started);
                if !a.flagged && elapsed > self.deadline {
                    a.flagged = true;
                    overruns.push(Overrun {
                        key: a.key.clone(),
                        attempt: a.attempt,
                        deadline_ms: self.deadline.as_millis() as u64,
                        elapsed_ms: 1e3 * elapsed.as_secs_f64(),
                    });
                }
                if let Some(g) = self.grace {
                    if a.flagged && !a.killed && elapsed > self.deadline + g {
                        a.killed = true;
                        a.cancel.cancel();
                    }
                }
            }
        }
    }

    /// Tells the watchdog thread to exit at its next wakeup.
    pub(crate) fn shutdown(&self) {
        lock_tolerant(&self.state).done = true;
        self.cv.notify_all();
    }

    /// Drains the flagged overruns, sorted for deterministic reports.
    pub(crate) fn take_overruns(&self) -> Vec<Overrun> {
        let mut o = std::mem::take(&mut lock_tolerant(&self.state).overruns);
        o.sort_by(|a, b| a.key.cmp(&b.key).then(a.attempt.cmp(&b.attempt)));
        o
    }
}

/// RAII registration of one attempt with the [`Watchdog`].
pub(crate) struct WatchGuard<'a> {
    dog: &'a Watchdog,
    token: u64,
}

impl Drop for WatchGuard<'_> {
    fn drop(&mut self) {
        lock_tolerant(&self.dog.state).active.remove(&self.token);
    }
}

// ---------------------------------------------------------------------------
// The run journal
// ---------------------------------------------------------------------------

/// Journal format version; bumped whenever the record or header layout
/// changes so stale journals are rejected instead of misread.
pub const JOURNAL_SCHEMA: u32 = 1;

/// A stable 64-bit FNV-1a digest of `bytes`. Used for journal record
/// identity so journals survive recompilation (unlike `DefaultHasher`,
/// whose keys the standard library may change between releases).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The journal's first line: everything that must match between the
/// journaling invocation and a `--resume` invocation for the records to be
/// reusable. A mismatch is a typed [`JournalError::HeaderMismatch`], never
/// a silent mix of incompatible results.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct JournalHeader {
    /// Journal format version ([`JOURNAL_SCHEMA`]).
    pub schema: u32,
    /// IEEE-754 bits of the trace scale (exact, no tolerance games).
    pub scale_bits: u64,
    /// Workload RNG seed.
    pub seed: u64,
    /// Processor count of the traced machine.
    pub n_cpus: usize,
}

impl JournalHeader {
    /// The header for runs built with `opts`.
    pub fn new(opts: &BuildOptions) -> Self {
        JournalHeader {
            schema: JOURNAL_SCHEMA,
            scale_bits: opts.scale.to_bits(),
            seed: opts.seed,
            n_cpus: opts.n_cpus,
        }
    }
}

/// One completed cell in the journal.
#[derive(Clone, Debug)]
pub struct JournalRecord {
    /// Stable fingerprint digest
    /// ([`crate::runner::CellFingerprint::stable_digest`]).
    pub digest: u64,
    /// Human-readable run-cache key (`workload/tag/geometry`).
    pub key: String,
    /// Attempt index that produced the result.
    pub attempt: u32,
    /// Wall-clock milliseconds the cell took when it originally ran.
    pub ms: f64,
    /// The cell's full simulation counters.
    pub stats: SimStats,
}

/// Why a journal could not be opened or parsed.
#[derive(Debug)]
pub enum JournalError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// The journal was written by an incompatible invocation (different
    /// schema version, scale, seed, or CPU count).
    HeaderMismatch {
        /// Which header field disagreed.
        field: &'static str,
        /// The value stored in the journal.
        journal: String,
        /// The value of the current invocation.
        current: String,
    },
    /// A line could not be decoded: a bad header, or a record line that
    /// ends in a newline. An append killed mid-write can only leave an
    /// *unterminated* final line, which [`Journal::resume`] drops instead
    /// (see [`Journal::salvaged`]); anything else is external corruption.
    Corrupt {
        /// 1-based line number of the undecodable line.
        line: usize,
        /// Parser diagnostic.
        msg: String,
    },
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal i/o: {e}"),
            JournalError::HeaderMismatch {
                field,
                journal,
                current,
            } => write!(
                f,
                "journal header mismatch: {field} is {journal} in the journal \
                 but {current} in this invocation"
            ),
            JournalError::Corrupt { line, msg } => {
                write!(f, "journal corrupt at line {line}: {msg}")
            }
        }
    }
}

impl std::error::Error for JournalError {}

impl From<std::io::Error> for JournalError {
    fn from(e: std::io::Error) -> Self {
        JournalError::Io(e)
    }
}

/// What [`Journal::resume`] threw away to recover a journal with a torn
/// final line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Salvage {
    /// 1-based line number of the truncated line.
    pub line: usize,
    /// Bytes dropped from the end of the file.
    pub dropped_bytes: usize,
}

/// A crash-safe run journal: JSONL on disk, one header line plus one
/// self-contained record per completed cell.
///
/// The header is persisted atomically (temp file + rename); each record is
/// then one `write` of one line to an open append handle, O(1) per cell.
/// A kill mid-write can leave only a torn *unterminated* final line, which
/// [`Journal::resume`] drops and reports through [`Journal::salvaged`].
pub struct Journal {
    path: PathBuf,
    salvaged: Option<Salvage>,
    inner: Mutex<JournalInner>,
}

struct JournalInner {
    header: JournalHeader,
    records: Vec<JournalRecord>,
    by_digest: HashMap<u64, usize>,
    file: std::fs::File,
}

impl Journal {
    /// Starts a fresh journal at `path` (truncating any existing file) and
    /// persists the header immediately.
    pub fn create(path: &Path, header: JournalHeader) -> Result<Journal, JournalError> {
        let file = persist(path, &header, &[])?;
        Ok(Journal::with_file(path, header, Vec::new(), None, file))
    }

    /// Opens the journal at `path` for resumption: parses every record so
    /// completed cells can be replayed. A missing file starts a fresh
    /// journal; an existing one must carry a matching header.
    ///
    /// A file that does not end in a newline was cut by a kill mid-append.
    /// If its final line does not decode, that torn record is dropped and
    /// reported by [`Journal::salvaged`]; if it does decode, it is kept.
    /// Either way the file is re-persisted so the next append starts on a
    /// line of its own. An undecodable line that *does* end in a newline,
    /// or a bad header, is [`JournalError::Corrupt`]: no append leaves
    /// that behind, so dropping records there would be a guess.
    pub fn resume(path: &Path, header: JournalHeader) -> Result<Journal, JournalError> {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Journal::create(path, header);
            }
            Err(e) => return Err(JournalError::Io(e)),
        };
        let mut lines = text.lines().enumerate();
        let (_, first) = lines.next().ok_or(JournalError::Corrupt {
            line: 1,
            msg: "empty journal (missing header line)".to_string(),
        })?;
        let found = parse_header(first).map_err(|msg| JournalError::Corrupt { line: 1, msg })?;
        check_header(&found, &header)?;
        let unterminated = !text.ends_with('\n');
        let last = text.lines().count();
        let mut records = Vec::new();
        let mut salvaged = None;
        for (i, line) in lines {
            if line.trim().is_empty() {
                continue;
            }
            match parse_record(line) {
                Ok(rec) => records.push(rec),
                Err(_) if unterminated && i + 1 == last => {
                    salvaged = Some(Salvage {
                        line: i + 1,
                        dropped_bytes: text.len() - text.rfind('\n').map_or(0, |p| p + 1),
                    });
                }
                Err(msg) => return Err(JournalError::Corrupt { line: i + 1, msg }),
            }
        }
        let file = if unterminated {
            persist(path, &header, &records)?
        } else {
            std::fs::OpenOptions::new().append(true).open(path)?
        };
        Ok(Journal::with_file(path, header, records, salvaged, file))
    }

    fn with_file(
        path: &Path,
        header: JournalHeader,
        records: Vec<JournalRecord>,
        salvaged: Option<Salvage>,
        file: std::fs::File,
    ) -> Journal {
        let by_digest = records
            .iter()
            .enumerate()
            .map(|(i, r)| (r.digest, i))
            .collect();
        Journal {
            path: path.to_path_buf(),
            salvaged,
            inner: Mutex::new(JournalInner {
                header,
                records,
                by_digest,
                file,
            }),
        }
    }

    /// The torn final record [`Journal::resume`] dropped, if it dropped one.
    pub fn salvaged(&self) -> Option<&Salvage> {
        self.salvaged.as_ref()
    }

    /// Every journal already appends; kept as the identity so existing
    /// `Journal::create(..).and_then(Journal::into_append)` callers build.
    pub fn into_append(self) -> Result<Journal, JournalError> {
        Ok(self)
    }

    /// The journal's on-disk path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Number of completed-cell records.
    pub fn len(&self) -> usize {
        lock_tolerant(&self.inner).records.len()
    }

    /// True when no cell has been journaled yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The journaled result for a fingerprint digest, if that cell already
    /// completed in a previous (or the current) run.
    pub fn lookup(&self, digest: u64) -> Option<SimStats> {
        let inner = lock_tolerant(&self.inner);
        inner
            .by_digest
            .get(&digest)
            .map(|&i| inner.records[i].stats.clone())
    }

    /// Appends one completed cell as one line written to the open handle.
    pub fn append(&self, rec: JournalRecord) -> Result<(), JournalError> {
        use std::io::Write;
        let mut inner = lock_tolerant(&self.inner);
        if inner.by_digest.contains_key(&rec.digest) {
            return Ok(()); // recurring fingerprint: first record stands
        }
        let mut line = String::new();
        write_record(&rec, &mut line);
        let idx = inner.records.len();
        inner.by_digest.insert(rec.digest, idx);
        inner.records.push(rec);
        inner.file.write_all(line.as_bytes())?;
        Ok(())
    }

    /// Truncates the journal to its first `n` records and persists (test
    /// support: emulates a run killed after `n` cells).
    pub fn truncate(&self, n: usize) -> Result<(), JournalError> {
        let mut inner = lock_tolerant(&self.inner);
        inner.records.truncate(n);
        let digests: Vec<u64> = inner.records.iter().map(|r| r.digest).collect();
        inner.by_digest = digests
            .into_iter()
            .enumerate()
            .map(|(i, d)| (d, i))
            .collect();
        // The rename replaces the inode the old handle pointed at.
        inner.file = persist(&self.path, &inner.header, &inner.records)?;
        Ok(())
    }
}

/// Serializes a whole journal, atomically replaces `path` with it (temp
/// file + rename), and returns a handle appending to the new file.
fn persist(
    path: &Path,
    header: &JournalHeader,
    records: &[JournalRecord],
) -> Result<std::fs::File, JournalError> {
    let mut s = String::new();
    write_header(header, &mut s);
    for r in records {
        write_record(r, &mut s);
    }
    let mut tmp = path.as_os_str().to_os_string();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    std::fs::write(&tmp, &s)?;
    std::fs::rename(&tmp, path)?;
    Ok(std::fs::OpenOptions::new().append(true).open(path)?)
}

fn check_header(found: &JournalHeader, want: &JournalHeader) -> Result<(), JournalError> {
    let fields: [(&'static str, u64, u64); 4] = [
        ("schema", u64::from(found.schema), u64::from(want.schema)),
        ("scale_bits", found.scale_bits, want.scale_bits),
        ("seed", found.seed, want.seed),
        ("n_cpus", found.n_cpus as u64, want.n_cpus as u64),
    ];
    for (field, journal, current) in fields {
        if journal != current {
            return Err(JournalError::HeaderMismatch {
                field,
                journal: journal.to_string(),
                current: current.to_string(),
            });
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Journal serde (header, record, SimStats)
// ---------------------------------------------------------------------------

fn write_header(h: &JournalHeader, out: &mut String) {
    out.push_str(&format!(
        "{{\"schema\":{},\"scale_bits\":{},\"scale\":{},\"seed\":{},\"n_cpus\":{}}}\n",
        h.schema,
        h.scale_bits,
        f64::from_bits(h.scale_bits),
        h.seed,
        h.n_cpus
    ));
}

fn parse_header(line: &str) -> Result<JournalHeader, String> {
    let j = Json::parse(line)?;
    Ok(JournalHeader {
        schema: j.field_u64("schema")? as u32,
        scale_bits: j.field_u64("scale_bits")?,
        seed: j.field_u64("seed")?,
        n_cpus: j.field_u64("n_cpus")? as usize,
    })
}

fn write_record(r: &JournalRecord, out: &mut String) {
    out.push_str(&format!(
        "{{\"digest\":{},\"cell\":\"{}\",\"attempt\":{},\"ms\":{},\"stats\":",
        r.digest,
        json_escape(&r.key),
        r.attempt,
        r.ms
    ));
    write_stats(&r.stats, out);
    out.push_str("}\n");
}

fn parse_record(line: &str) -> Result<JournalRecord, String> {
    let j = Json::parse(line)?;
    Ok(JournalRecord {
        digest: j.field_u64("digest")?,
        key: j.field("cell")?.str()?.to_string(),
        attempt: j.field_u64("attempt")? as u32,
        ms: j.field("ms")?.f64()?,
        stats: stats_from_value(j.field("stats")?)?,
    })
}

/// Serializes a [`SimStats`] to the journal's JSON form (stable field
/// order; maps as key-sorted arrays, so equal stats produce equal bytes).
pub fn stats_to_json(s: &SimStats) -> String {
    let mut out = String::new();
    write_stats(s, &mut out);
    out
}

/// Parses [`stats_to_json`]'s output back; every `u64` counter
/// round-trips exactly.
pub fn stats_from_json(text: &str) -> Result<SimStats, String> {
    stats_from_value(&Json::parse(text)?)
}

fn write_stats(s: &SimStats, out: &mut String) {
    out.push_str("{\"cpus\":[");
    for (i, c) in s.cpus.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_cpu(c, out);
    }
    out.push_str("],\"bus\":");
    write_bus(&s.bus, out);
    out.push_str(",\"cpu_times\":");
    write_u64s(&s.cpu_times, out);
    out.push('}');
}

fn stats_from_value(j: &Json) -> Result<SimStats, String> {
    let mut s = SimStats::default();
    for c in j.field("cpus")?.arr()? {
        s.cpus.push(cpu_from_value(c)?);
    }
    s.bus = bus_from_value(j.field("bus")?)?;
    s.cpu_times = u64s_from_value(j.field("cpu_times")?)?;
    Ok(s)
}

fn write_split(m: ModeSplit, out: &mut String) {
    out.push_str(&format!("[{},{}]", m.user, m.os));
}

fn split_from_value(j: &Json) -> Result<ModeSplit, String> {
    let a = j.arr()?;
    if a.len() != 2 {
        return Err(format!("mode split needs 2 elements, got {}", a.len()));
    }
    Ok(ModeSplit {
        user: a[0].u64()?,
        os: a[1].u64()?,
    })
}

fn write_u64s(v: &[u64], out: &mut String) {
    out.push('[');
    for (i, x) in v.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&x.to_string());
    }
    out.push(']');
}

fn u64s_from_value(j: &Json) -> Result<Vec<u64>, String> {
    j.arr()?.iter().map(Json::u64).collect()
}

fn write_cpu(c: &CpuStats, out: &mut String) {
    out.push('{');
    let mut first = true;
    let mut field = |out: &mut String, name: &str| {
        if !first {
            out.push(',');
        }
        first = false;
        out.push('"');
        out.push_str(name);
        out.push_str("\":");
    };
    for (name, v) in [
        ("exec_cycles", c.exec_cycles),
        ("imiss_cycles", c.imiss_cycles),
        ("dread_cycles", c.dread_cycles),
        ("dwrite_cycles", c.dwrite_cycles),
        ("pref_cycles", c.pref_cycles),
        ("sync_cycles", c.sync_cycles),
        ("dreads", c.dreads),
        ("dwrites", c.dwrites),
        ("l1d_read_misses", c.l1d_read_misses),
        ("l1i_misses", c.l1i_misses),
    ] {
        field(out, name);
        write_split(v, out);
    }
    for (name, v) in [
        ("idle_cycles", c.idle_cycles),
        ("os_miss_blockop", c.os_miss_blockop),
        ("os_miss_other", c.os_miss_other),
        ("displ_inside", c.displ_inside),
        ("displ_outside", c.displ_outside),
        ("reuse_inside", c.reuse_inside),
        ("reuse_outside", c.reuse_outside),
        ("blk_read_stall", c.blk_read_stall),
        ("blk_write_stall", c.blk_write_stall),
        ("blk_exec_cycles", c.blk_exec_cycles),
        ("blk_displ_stall", c.blk_displ_stall),
        ("blk_src_lines", c.blk_src_lines),
        ("blk_src_lines_cached", c.blk_src_lines_cached),
        ("blk_dst_lines", c.blk_dst_lines),
        ("blk_dst_l2_owned", c.blk_dst_l2_owned),
        ("blk_dst_l2_shared", c.blk_dst_l2_shared),
        ("blk_ops", c.blk_ops),
        ("prefetches_issued", c.prefetches_issued),
        ("prefetch_full_hits", c.prefetch_full_hits),
        ("prefetch_partial_hits", c.prefetch_partial_hits),
    ] {
        field(out, name);
        out.push_str(&v.to_string());
    }
    field(out, "os_miss_coherence");
    write_u64s(&c.os_miss_coherence, out);
    field(out, "blk_size_buckets");
    write_u64s(&c.blk_size_buckets, out);
    field(out, "os_miss_by_site");
    write_u64s(&c.os_miss_by_site, out);

    field(out, "os_miss_by_class");
    let mut by_class: Vec<(DataClass, u64)> =
        c.os_miss_by_class.iter().map(|(&k, &v)| (k, v)).collect();
    by_class.sort_unstable();
    out.push('[');
    for (i, (k, v)) in by_class.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("[\"{}\",{v}]", k.name()));
    }
    out.push(']');

    field(out, "lock_wait_cycles");
    let mut locks: Vec<(u16, u64)> = c.lock_wait_cycles.iter().map(|(&k, &v)| (k, v)).collect();
    locks.sort_unstable();
    out.push('[');
    for (i, (k, v)) in locks.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("[{k},{v}]"));
    }
    out.push(']');

    field(out, "conflict_pairs");
    let mut pairs: Vec<((DataClass, DataClass), u64)> =
        c.conflict_pairs.iter().map(|(&k, &v)| (k, v)).collect();
    pairs.sort_unstable();
    out.push('[');
    for (i, ((a, b), v)) in pairs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("[\"{}\",\"{}\",{v}]", a.name(), b.name()));
    }
    out.push(']');
    out.push('}');
}

#[allow(clippy::field_reassign_with_default)]
fn cpu_from_value(j: &Json) -> Result<CpuStats, String> {
    let mut c = CpuStats::default();
    c.exec_cycles = split_from_value(j.field("exec_cycles")?)?;
    c.imiss_cycles = split_from_value(j.field("imiss_cycles")?)?;
    c.dread_cycles = split_from_value(j.field("dread_cycles")?)?;
    c.dwrite_cycles = split_from_value(j.field("dwrite_cycles")?)?;
    c.pref_cycles = split_from_value(j.field("pref_cycles")?)?;
    c.sync_cycles = split_from_value(j.field("sync_cycles")?)?;
    c.dreads = split_from_value(j.field("dreads")?)?;
    c.dwrites = split_from_value(j.field("dwrites")?)?;
    c.l1d_read_misses = split_from_value(j.field("l1d_read_misses")?)?;
    c.l1i_misses = split_from_value(j.field("l1i_misses")?)?;
    c.idle_cycles = j.field_u64("idle_cycles")?;
    c.os_miss_blockop = j.field_u64("os_miss_blockop")?;
    c.os_miss_other = j.field_u64("os_miss_other")?;
    c.displ_inside = j.field_u64("displ_inside")?;
    c.displ_outside = j.field_u64("displ_outside")?;
    c.reuse_inside = j.field_u64("reuse_inside")?;
    c.reuse_outside = j.field_u64("reuse_outside")?;
    c.blk_read_stall = j.field_u64("blk_read_stall")?;
    c.blk_write_stall = j.field_u64("blk_write_stall")?;
    c.blk_exec_cycles = j.field_u64("blk_exec_cycles")?;
    c.blk_displ_stall = j.field_u64("blk_displ_stall")?;
    c.blk_src_lines = j.field_u64("blk_src_lines")?;
    c.blk_src_lines_cached = j.field_u64("blk_src_lines_cached")?;
    c.blk_dst_lines = j.field_u64("blk_dst_lines")?;
    c.blk_dst_l2_owned = j.field_u64("blk_dst_l2_owned")?;
    c.blk_dst_l2_shared = j.field_u64("blk_dst_l2_shared")?;
    c.blk_ops = j.field_u64("blk_ops")?;
    c.prefetches_issued = j.field_u64("prefetches_issued")?;
    c.prefetch_full_hits = j.field_u64("prefetch_full_hits")?;
    c.prefetch_partial_hits = j.field_u64("prefetch_partial_hits")?;
    let coh = u64s_from_value(j.field("os_miss_coherence")?)?;
    c.os_miss_coherence = coh
        .try_into()
        .map_err(|v: Vec<u64>| format!("os_miss_coherence needs 5 elements, got {}", v.len()))?;
    let buckets = u64s_from_value(j.field("blk_size_buckets")?)?;
    c.blk_size_buckets = buckets
        .try_into()
        .map_err(|v: Vec<u64>| format!("blk_size_buckets needs 3 elements, got {}", v.len()))?;
    c.os_miss_by_site = u64s_from_value(j.field("os_miss_by_site")?)?;
    let class = |j: &Json| {
        let name = j.str()?;
        DataClass::from_name(name).ok_or_else(|| format!("unknown data class {name:?}"))
    };
    for e in j.field("os_miss_by_class")?.arr()? {
        let pair = e.arr()?;
        if pair.len() != 2 {
            return Err("os_miss_by_class entries are [class, count]".to_string());
        }
        c.os_miss_by_class.insert(class(&pair[0])?, pair[1].u64()?);
    }
    for e in j.field("lock_wait_cycles")?.arr()? {
        let pair = e.arr()?;
        if pair.len() != 2 {
            return Err("lock_wait_cycles entries are [lock, cycles]".to_string());
        }
        c.lock_wait_cycles
            .insert(pair[0].u64()? as u16, pair[1].u64()?);
    }
    for e in j.field("conflict_pairs")?.arr()? {
        let triple = e.arr()?;
        if triple.len() != 3 {
            return Err("conflict_pairs entries are [victim, evictor, count]".to_string());
        }
        c.conflict_pairs
            .insert((class(&triple[0])?, class(&triple[1])?), triple[2].u64()?);
    }
    Ok(c)
}

fn write_bus(b: &BusStats, out: &mut String) {
    out.push_str(&format!(
        "{{\"read_lines\":{},\"read_exclusive\":{},\"invalidations\":{},\
         \"write_backs\":{},\"line_writes\":{},\"update_words\":{},\
         \"dma_transfers\":{},\"busy_cycles\":{}}}",
        b.read_lines,
        b.read_exclusive,
        b.invalidations,
        b.write_backs,
        b.line_writes,
        b.update_words,
        b.dma_transfers,
        b.busy_cycles
    ));
}

fn bus_from_value(j: &Json) -> Result<BusStats, String> {
    Ok(BusStats {
        read_lines: j.field_u64("read_lines")?,
        read_exclusive: j.field_u64("read_exclusive")?,
        invalidations: j.field_u64("invalidations")?,
        write_backs: j.field_u64("write_backs")?,
        line_writes: j.field_u64("line_writes")?,
        update_words: j.field_u64("update_words")?,
        dma_transfers: j.field_u64("dma_transfers")?,
        busy_cycles: j.field_u64("busy_cycles")?,
    })
}

pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Minimal JSON (just what the journal needs: objects, arrays, strings,
// numbers kept as text so u64 counters never pass through f64)
// ---------------------------------------------------------------------------

/// A parsed JSON value. Numbers stay as their source text until a typed
/// accessor parses them, so 64-bit counters round-trip exactly.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum Json {
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
    /// An array.
    Arr(Vec<Json>),
    /// A string.
    Str(String),
    /// A number, unparsed.
    Num(String),
    /// A boolean.
    Bool(bool),
    /// `null`.
    Null,
}

impl Json {
    /// Parses one JSON value from `text` (trailing whitespace allowed).
    pub(crate) fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let v = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing bytes at offset {pos}"));
        }
        Ok(v)
    }

    pub(crate) fn field(&self, name: &str) -> Result<&Json, String> {
        match self {
            Json::Obj(fields) => fields
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v)
                .ok_or_else(|| format!("missing field {name:?}")),
            _ => Err(format!("expected object while reading field {name:?}")),
        }
    }

    pub(crate) fn field_u64(&self, name: &str) -> Result<u64, String> {
        self.field(name)?.u64()
    }

    pub(crate) fn u64(&self) -> Result<u64, String> {
        match self {
            Json::Num(s) => s.parse().map_err(|_| format!("not a u64: {s:?}")),
            other => Err(format!("expected number, got {other:?}")),
        }
    }

    pub(crate) fn f64(&self) -> Result<f64, String> {
        match self {
            Json::Num(s) => s.parse().map_err(|_| format!("not a number: {s:?}")),
            other => Err(format!("expected number, got {other:?}")),
        }
    }

    pub(crate) fn str(&self) -> Result<&str, String> {
        match self {
            Json::Str(s) => Ok(s),
            other => Err(format!("expected string, got {other:?}")),
        }
    }

    pub(crate) fn arr(&self) -> Result<&[Json], String> {
        match self {
            Json::Arr(v) => Ok(v),
            other => Err(format!("expected array, got {other:?}")),
        }
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, ch: u8) -> Result<(), String> {
    if *pos < b.len() && b[*pos] == ch {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected {:?} at offset {}", char::from(ch), *pos))
    }
}

/// Deepest array/object nesting [`Json::parse`] accepts, far above any
/// journal record or service request; the bound keeps a hostile line
/// from overflowing the recursive parser's stack.
const MAX_JSON_DEPTH: usize = 32;

fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(b, pos);
    if matches!(b.get(*pos), Some(b'{' | b'[')) && depth >= MAX_JSON_DEPTH {
        return Err(format!(
            "nesting deeper than {MAX_JSON_DEPTH} at offset {}",
            *pos
        ));
    }
    match b.get(*pos) {
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                skip_ws(b, pos);
                expect(b, pos, b':')?;
                let val = parse_value(b, pos, depth + 1)?;
                fields.push((key, val));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(format!("expected ',' or '}}' at offset {}", *pos)),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos, depth + 1)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at offset {}", *pos)),
                }
            }
        }
        Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
        Some(b't') if b[*pos..].starts_with(b"true") => {
            *pos += 4;
            Ok(Json::Bool(true))
        }
        Some(b'f') if b[*pos..].starts_with(b"false") => {
            *pos += 5;
            Ok(Json::Bool(false))
        }
        Some(b'n') if b[*pos..].starts_with(b"null") => {
            *pos += 4;
            Ok(Json::Null)
        }
        Some(c) if c.is_ascii_digit() || *c == b'-' => {
            let start = *pos;
            *pos += 1;
            while *pos < b.len()
                && matches!(b[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
            {
                *pos += 1;
            }
            Ok(Json::Num(
                std::str::from_utf8(&b[start..*pos])
                    .map_err(|e| e.to_string())?
                    .to_string(),
            ))
        }
        _ => Err(format!("unexpected byte at offset {}", *pos)),
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hex = b.get(*pos + 1..*pos + 5).ok_or("truncated \\u escape")?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                            16,
                        )
                        .map_err(|e| e.to_string())?;
                        out.push(char::from_u32(code).ok_or("invalid \\u escape")?);
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at offset {}", *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy the whole run up to the next quote or backslash,
                // validating it once: both delimiters are ASCII, so a run
                // never splits a multibyte scalar, and the parse stays
                // linear in the line's length.
                let run = b[*pos..]
                    .iter()
                    .position(|&c| c == b'"' || c == b'\\')
                    .ok_or("unterminated string")?;
                let text = std::str::from_utf8(&b[*pos..*pos + run]).map_err(|e| e.to_string())?;
                out.push_str(text);
                *pos += run;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_round_trips_scalars() {
        let j = Json::parse(r#"{"a":18446744073709551615,"b":"x\"\\y","c":[1,2],"d":-3.5}"#)
            .expect("parses");
        assert_eq!(j.field_u64("a").unwrap(), u64::MAX);
        assert_eq!(j.field("b").unwrap().str().unwrap(), "x\"\\y");
        assert_eq!(j.field("c").unwrap().arr().unwrap().len(), 2);
        assert_eq!(j.field("d").unwrap().f64().unwrap(), -3.5);
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,2,]").is_err());
        assert!(Json::parse("{}trailing").is_err());
        let nested = |n| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(Json::parse(&nested(32)).is_ok());
        let err = Json::parse(&nested(33)).unwrap_err();
        assert!(err.contains("nesting deeper than 32"), "{err}");
        assert!(Json::parse(&"[".repeat(200_000)).is_err());
    }

    #[test]
    fn invalid_utf8_inside_a_string_is_an_error() {
        let mut pos = 0;
        assert!(parse_string(b"\"ok \xff\xfe bad\"", &mut pos).is_err());
        let mut pos = 0;
        assert!(parse_string(b"\"cut \xe2\x82\"", &mut pos).is_err());
        let mut pos = 0;
        assert_eq!(parse_string(b"\"caf\xc3\xa9\"", &mut pos).unwrap(), "café");
        assert_eq!(pos, 7);
        let mut pos = 0;
        assert!(parse_string(b"\"no end", &mut pos).is_err());
        let mut pos = 0;
        assert!(parse_string(br#""bad \q escape""#, &mut pos).is_err());
    }

    #[test]
    fn journal_record_round_trips_multibyte_keys_and_escapes() {
        let rec = JournalRecord {
            digest: 42,
            key: "Shell/Base \"ü\"\\Ωπ\t😀\n/x".to_string(),
            attempt: 1,
            ms: 2.5,
            stats: SimStats::default(),
        };
        let mut s = String::new();
        write_record(&rec, &mut s);
        let back = parse_record(s.trim_end()).expect("record parses");
        assert_eq!(back.key, rec.key);
        assert_eq!(back.digest, 42);
        assert_eq!(back.attempt, 1);
    }

    #[test]
    fn header_line_round_trips() {
        let h = JournalHeader {
            schema: JOURNAL_SCHEMA,
            scale_bits: 0.05f64.to_bits(),
            seed: 0x05cac8e,
            n_cpus: 4,
        };
        let mut s = String::new();
        write_header(&h, &mut s);
        let parsed = parse_header(s.trim_end()).expect("header parses");
        assert_eq!(parsed, h);
    }

    #[test]
    fn backoff_is_exponential_and_capped() {
        let p = RunPolicy {
            backoff_ms: 25,
            ..RunPolicy::default()
        };
        assert_eq!(p.backoff(0), Duration::from_millis(25));
        assert_eq!(p.backoff(1), Duration::from_millis(50));
        assert_eq!(p.backoff(2), Duration::from_millis(100));
        assert_eq!(p.backoff(20), Duration::from_millis(1_000));
        assert_eq!(RunPolicy::fail_fast().backoff(3), Duration::ZERO);
    }

    #[test]
    fn fnv_digest_is_stable() {
        // Pinned value: journals written by one build must be readable by
        // the next, so the digest function may never drift.
        assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a(b"a"), 0xaf63dc4c8601ec8c);
    }
}
