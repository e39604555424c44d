//! Bookkeeping-free miss profiler.
//!
//! [`profile_os_misses`] replays a trace on a [`Machine`] with statistics
//! recording switched off: the replay keeps *every* state- and
//! time-affecting mechanism — cache/MESI transitions, bus arbitration,
//! write-buffer drains, MSHRs, victim caches, lock/barrier scheduling — and
//! skips only record-only work (departure histories, bypass marks, miss
//! kind/class attribution, cycle-bucket accounting, contention hashes).
//!
//! Because the CPU interleaving is driven purely by the per-CPU clocks and
//! those clocks advance identically, the sequence of cache events is
//! *exactly* the one a fully-recording run produces. The two outputs the
//! hot-spot analysis consumes — `os_miss_by_site` and the OS read-miss
//! total ([`CpuStats::os_read_misses`]) — are therefore exact by
//! construction, not approximations: each OS read miss increments the
//! per-site vector and `os_miss_other` exactly once via
//! [`CpuStats::count_os_miss_site_only`].
//!
//! What is *not* faithful in the returned [`SimStats`]: the kind/class
//! miss breakdowns (everything lands in `os_miss_other`), cycle buckets,
//! reference counts, displacement/reuse counters, and block-op probes —
//! they all read zero. Callers that need them (or any
//! [`AuditLevel`](crate::AuditLevel) above `Off`, whose step audit expects
//! the recorded histories) must run the full [`Machine`] instead.

use crate::error::SimError;
use crate::machine::Machine;
use crate::stats::SimStats;
use crate::{AuditLevel, MachineConfig};
use oscache_trace::ChunkedTrace;

#[allow(unused_imports)] // doc links
use crate::stats::CpuStats;

/// Replays `trace` without statistics bookkeeping and returns stats whose
/// `os_miss_by_site` and OS read-miss totals are exact.
///
/// `cfg.audit` is forced to [`AuditLevel::Off`]: the step/final audits
/// cross-check recorded bookkeeping that this replay deliberately skips.
/// Callers wanting audited profiling should run the full [`Machine`].
///
/// Errors are the same typed [`SimError`]s the full machine reports —
/// validation, deadlock, and replay-semantics failures are unaffected by
/// the recording switch.
pub fn profile_os_misses(
    mut cfg: MachineConfig,
    trace: &ChunkedTrace,
) -> Result<SimStats, SimError> {
    cfg.audit = AuditLevel::Off;
    Machine::with_recording(cfg, trace, false)?.run()
}
