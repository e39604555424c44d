//! Supervision layer for experiment runs: failure policy, soft
//! deadlines, and the run journal.
//!
//! The paper's full reproduction is a multi-minute fan-out over ~34
//! independent cells ([`crate::runner::run_cells_supervised`]). Before this layer, a
//! single failing cell discarded every completed one, a worker panic tore
//! the whole process down, and a killed run restarted from zero. The
//! supervision layer (DESIGN.md §13) makes runs survivable:
//!
//! * [`RunPolicy`] — per-cell panic isolation, bounded retry with
//!   exponential backoff, an optional soft deadline, and a deterministic
//!   seeded panic-injection hook
//!   ([`oscache_memsys::faults::CellFault`]) for exercising all of it.
//!   An attempt that runs past the soft deadline is recorded as an
//!   [`Overrun`] when it ends. Under [`Escalation::CancelAfterGrace`] the
//!   attempt also runs on its own child token
//!   ([`oscache_memsys::CancelToken::child_until`]) that kills it once the
//!   grace is spent. No thread watches the deadline.
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
//! Everything here is dependency-free: each journal line type names its
//! JSON fields once, in one field list near the bottom of this module,
//! and the crate's one codec (`crate::json`) renders and parses it from
//! that list (`u64` counters round-trip exactly because numbers are kept
//! as text until a typed accessor parses them).

use crate::json::{self, object, Codec, Counts, Fields, Json, Obj, Value};
use crate::runner::Cell;
use oscache_memsys::faults::CellFault;
use oscache_memsys::{BusStats, CpuStats, ModeSplit, SimError, SimStats};
use oscache_trace::DataClass;
use oscache_workloads::BuildOptions;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Duration;

pub(crate) use oscache_trace::lock_tolerant;

// ---------------------------------------------------------------------------
// Policy and failures
// ---------------------------------------------------------------------------

/// What happens to an attempt that outlives the soft deadline.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Escalation {
    /// Let the attempt run to the end and record an [`Overrun`] then —
    /// the default, so existing CLI runs are unchanged.
    #[default]
    FlagOnly,
    /// Run the attempt on a child of the caller's cancel token that trips
    /// `grace_ms` milliseconds past the soft deadline
    /// ([`oscache_memsys::CancelToken::child_until`]). The machine's event loop observes
    /// it and the attempt dies as [`FailureCause::Timeout`] within a
    /// bounded delay (cancellation is cooperative: polled every ~1k
    /// simulated events, plus any non-cancellable analysis pass in
    /// flight). Only that attempt dies: the caller's token, which its
    /// sibling cells share, stays live. The overrun is still recorded.
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
    /// Soft per-cell deadline in milliseconds (0 counts as 1): an attempt
    /// that runs longer is recorded as an [`Overrun`] when it ends (and,
    /// under [`Escalation::CancelAfterGrace`], is cancelled). `None`
    /// disables the deadline.
    pub soft_deadline_ms: Option<u64>,
    /// What happens beyond recording an overrun.
    pub escalation: Escalation,
    /// Deterministic panic injection (tests, CI fault smoke): attempts it
    /// [`CellFault::fires`] on panic inside the supervised region.
    pub inject: Option<CellFault>,
}

impl RunPolicy {
    /// The non-supervised default: no retries, no deadline, no injection.
    /// Panic isolation and typed failures still apply, but nothing is
    /// retried.
    pub fn fail_fast() -> Self {
        RunPolicy::default()
    }

    /// The kill grace period past the soft deadline, when escalation
    /// requests one.
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
    /// either its soft deadline plus grace passed under
    /// [`Escalation::CancelAfterGrace`], or a service request's deadline
    /// (or its client's disappearance) tripped the cell's
    /// [`oscache_memsys::CancelToken`]. Under the default [`Escalation::FlagOnly`] policy
    /// overruns are only recorded and the soft deadline never produces
    /// this cause.
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

/// A cell failure as a report carries it over the wire: plain data,
/// printed on stderr as the logfmt fields `cell=… attempt=… cause=… msg=…`
/// (its `Display`), the same by the one-shot CLI and by `repro submit`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FailureReport {
    /// Run-cache key of the failed cell.
    pub key: String,
    /// The last attempt index.
    pub attempt: u32,
    /// The cause's class label ([`FailureCause::class`]).
    pub cause: String,
    /// The cause's message.
    pub msg: String,
}

impl From<&CellFailure> for FailureReport {
    fn from(f: &CellFailure) -> Self {
        FailureReport {
            key: f.cell.key(),
            attempt: f.attempt,
            cause: f.cause.class().to_string(),
            msg: f.cause.to_string(),
        }
    }
}

impl std::fmt::Display for FailureReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "cell={:?} attempt={} cause={} msg={:?}",
            self.key, self.attempt, self.cause, self.msg
        )
    }
}

object!(FailureReport {
    "cell" => key,
    "attempt" => attempt,
    "cause" => cause,
    "msg" => msg,
});

/// An attempt that ran past the soft deadline, recorded when the attempt
/// ended. Under [`Escalation::FlagOnly`] the record is advisory: the
/// attempt ran to completion (or to its own failure).
#[derive(Clone, Debug)]
pub struct Overrun {
    /// Run-cache key of the overrunning cell.
    pub key: String,
    /// Attempt index that overran.
    pub attempt: u32,
    /// The policy's soft deadline, in milliseconds.
    pub deadline_ms: u64,
    /// The attempt's full run time, in milliseconds.
    pub elapsed_ms: f64,
}

// ---------------------------------------------------------------------------
// The run journal
// ---------------------------------------------------------------------------

/// Journal format version; bumped whenever the record or header layout
/// changes so stale journals are rejected instead of misread.
pub const JOURNAL_SCHEMA: u32 = 1;

pub use oscache_trace::fnv1a;

/// The journal's first line: everything that must match between the
/// journaling invocation and a `--resume` invocation for the records to be
/// reusable. A mismatch is a typed [`JournalError::HeaderMismatch`], never
/// a silent mix of incompatible results.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
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
#[derive(Clone, Debug, Default)]
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
        let found = json::from_line(first).map_err(|msg| JournalError::Corrupt { line: 1, msg })?;
        check_header(&found, &header)?;
        let unterminated = !text.ends_with('\n');
        let last = text.lines().count();
        let mut records = Vec::new();
        let mut salvaged = None;
        for (i, line) in lines {
            if line.trim().is_empty() {
                continue;
            }
            match json::from_line(line) {
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
        put_line(&rec, &mut line);
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
    put_line(header, &mut s);
    for r in records {
        put_line(r, &mut s);
    }
    let mut tmp = path.as_os_str().to_os_string();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    std::fs::write(&tmp, &s)?;
    std::fs::rename(&tmp, path)?;
    Ok(std::fs::OpenOptions::new().append(true).open(path)?)
}

/// Compares the headers field by field in their JSON form, so the names a
/// mismatch reports are the header's own field list.
fn check_header(found: &JournalHeader, want: &JournalHeader) -> Result<(), JournalError> {
    let values = |h: &JournalHeader| match Json::parse(&json::to_line(h)) {
        Ok(Json::Obj(fields)) => fields.into_iter().map(|(_, v)| v),
        _ => unreachable!("a rendered header parses as an object"),
    };
    let names = JournalHeader::NAMES.iter();
    for ((&field, journal), current) in names.zip(values(found)).zip(values(want)) {
        if let (Json::Num(journal), Json::Num(current)) = (journal, current) {
            if journal != current {
                return Err(JournalError::HeaderMismatch {
                    field,
                    journal,
                    current,
                });
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Journal lines: one field list per type, rendered and parsed by crate::json
// ---------------------------------------------------------------------------

/// The header's `scale`: the trace scale as a plain number for a reader
/// of the journal. It is never read back; `scale_bits` is exact.
struct ScaleOfBits;

impl Codec<u64> for ScaleOfBits {
    fn put(bits: &u64, name: &str, w: &mut Obj<'_>) {
        f64::from_bits(*bits).put(w.key(name));
    }
    fn get(_: Result<&Json, String>, _: &str, _: &mut u64) -> Result<(), String> {
        Ok(())
    }
}

object!(JournalHeader {
    "schema" => schema,
    "scale_bits" => scale_bits,
    "scale" => scale_bits: ScaleOfBits,
    "seed" => seed,
    "n_cpus" => n_cpus,
});

object!(JournalRecord {
    "digest" => digest,
    "cell" => key,
    "attempt" => attempt,
    "ms" => ms,
    "stats" => stats,
});

object!(SimStats {
    "cpus" => cpus,
    "bus" => bus,
    "cpu_times" => cpu_times,
});

object!(CpuStats {
    "exec_cycles" => exec_cycles,
    "imiss_cycles" => imiss_cycles,
    "dread_cycles" => dread_cycles,
    "dwrite_cycles" => dwrite_cycles,
    "pref_cycles" => pref_cycles,
    "sync_cycles" => sync_cycles,
    "dreads" => dreads,
    "dwrites" => dwrites,
    "l1d_read_misses" => l1d_read_misses,
    "l1i_misses" => l1i_misses,
    "idle_cycles" => idle_cycles,
    "os_miss_blockop" => os_miss_blockop,
    "os_miss_other" => os_miss_other,
    "displ_inside" => displ_inside,
    "displ_outside" => displ_outside,
    "reuse_inside" => reuse_inside,
    "reuse_outside" => reuse_outside,
    "blk_read_stall" => blk_read_stall,
    "blk_write_stall" => blk_write_stall,
    "blk_exec_cycles" => blk_exec_cycles,
    "blk_displ_stall" => blk_displ_stall,
    "blk_src_lines" => blk_src_lines,
    "blk_src_lines_cached" => blk_src_lines_cached,
    "blk_dst_lines" => blk_dst_lines,
    "blk_dst_l2_owned" => blk_dst_l2_owned,
    "blk_dst_l2_shared" => blk_dst_l2_shared,
    "blk_ops" => blk_ops,
    "prefetches_issued" => prefetches_issued,
    "prefetch_full_hits" => prefetch_full_hits,
    "prefetch_partial_hits" => prefetch_partial_hits,
    "os_miss_coherence" => os_miss_coherence,
    "blk_size_buckets" => blk_size_buckets,
    "os_miss_by_site" => os_miss_by_site,
    "os_miss_by_class" => os_miss_by_class: Counts,
    "lock_wait_cycles" => lock_wait_cycles: Counts,
    "conflict_pairs" => conflict_pairs: Counts,
});

object!(BusStats {
    "read_lines" => read_lines,
    "read_exclusive" => read_exclusive,
    "invalidations" => invalidations,
    "write_backs" => write_backs,
    "line_writes" => line_writes,
    "update_words" => update_words,
    "dma_transfers" => dma_transfers,
    "busy_cycles" => busy_cycles,
});

/// A mode split as `[user, os]`.
impl Value for ModeSplit {
    fn put(&self, out: &mut String) {
        [self.user, self.os].put(out);
    }
    fn get(j: &Json) -> Result<Self, String> {
        let [user, os] = <[u64; 2]>::get(j)?;
        Ok(ModeSplit { user, os })
    }
}

/// A data class by its stable name.
impl Value for DataClass {
    fn put(&self, out: &mut String) {
        json::put_str(self.name(), out);
    }
    fn get(j: &Json) -> Result<Self, String> {
        let name = j.str()?;
        DataClass::from_name(name).ok_or_else(|| format!("unknown data class {name:?}"))
    }
}

/// Per-class counts as the count map of the classes counted.
impl Codec<[u64; DataClass::COUNT]> for Counts {
    fn put(v: &[u64; DataClass::COUNT], name: &str, w: &mut Obj<'_>) {
        let counted = DataClass::all().iter().copied().zip(v.iter().copied());
        Counts::put_entries(counted.filter(|&(_, n)| n != 0), w.key(name));
    }
    fn get(
        found: Result<&Json, String>,
        name: &str,
        into: &mut [u64; DataClass::COUNT],
    ) -> Result<(), String> {
        for (class, n) in Counts::get_entries::<DataClass>(found?, name)? {
            into[class as usize] = n;
        }
        Ok(())
    }
}

/// Serializes a [`SimStats`] to the journal's JSON form (stable field
/// order; maps as key-sorted arrays, so equal stats produce equal bytes).
pub fn stats_to_json(s: &SimStats) -> String {
    json::to_line(s)
}

/// Parses [`stats_to_json`]'s output back; every `u64` counter
/// round-trips exactly.
pub fn stats_from_json(text: &str) -> Result<SimStats, String> {
    json::from_line(text)
}

/// Appends `v` and a newline to `out`: one journal line.
fn put_line(v: &impl Value, out: &mut String) {
    v.put(out);
    out.push('\n');
}

#[cfg(test)]
mod tests {
    use super::*;

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
        rec.put(&mut s);
        let back: JournalRecord = json::from_line(&s).expect("record parses");
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
        h.put(&mut s);
        let parsed: JournalHeader = json::from_line(&s).expect("header parses");
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
