//! Trace serialization.
//!
//! The paper's performance monitor dumps its trace buffers to disk so that
//! "an unbounded continuous stretch of the workload" can be traced and
//! re-simulated later (§2.1). This module provides the equivalent: a
//! line-oriented text format that round-trips a full [`ChunkedTrace`] —
//! events, code layout, kernel-variable map, and kernel data ranges. Both
//! directions stream: the writer decodes one chunk at a time, and the
//! reader encodes events into chunks as it parses them.
//!
//! The format is versioned, deliberately simple, and diff-friendly:
//!
//! ```text
//! oscache-trace 1
//! workload TRFD_4
//! cpus 4
//! site pgfault_entry seq
//! block 10000 18 0
//! var 1000000 4 InfreqCounter counter - vmmeter.v_intr
//! range 1000000 4000
//! stream 0
//! M os
//! E 0
//! R 1000000 InfreqCounter
//! ...
//! end
//! ```

use crate::{
    Addr, BarrierId, BlockId, BlockKind, BlockOp, ChunkedStreamBuilder, ChunkedTrace, CodeLayout,
    DataClass, Event, KernelVar, LockId, Mode, SiteId, TraceError, TraceMeta, VarRole, MAX_CPUS,
};
use std::fmt;
use std::io::{self, BufRead, Write};

/// Errors produced while reading a serialized trace.
#[derive(Debug)]
pub enum ReadTraceError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The input is not a valid trace dump; `line` is the 1-based offending
    /// line and `msg` describes the problem.
    Parse {
        /// 1-based line number of the offending line.
        line: usize,
        /// What went wrong on that line.
        msg: String,
    },
    /// The input ended before the trailing `end` marker: the dump was cut
    /// off mid-stream (partial copy, interrupted writer). Distinct from
    /// [`ReadTraceError::Parse`] so callers can suggest re-dumping instead
    /// of pointing at a malformed line.
    Truncated {
        /// 1-based line number where the input ended.
        line: usize,
    },
    /// The dump parsed, but the resulting trace violates a structural
    /// invariant (see [`TraceError`]).
    Invalid(TraceError),
}

impl fmt::Display for ReadTraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReadTraceError::Io(e) => write!(f, "i/o error reading trace: {e}"),
            ReadTraceError::Parse { line, msg } => {
                write!(f, "malformed trace dump: line {line}: {msg}")
            }
            ReadTraceError::Truncated { line } => write!(
                f,
                "truncated trace dump: input ended at line {line} without the `end` marker"
            ),
            ReadTraceError::Invalid(e) => write!(f, "invalid trace: {e}"),
        }
    }
}

impl std::error::Error for ReadTraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ReadTraceError::Io(e) => Some(e),
            ReadTraceError::Parse { .. } | ReadTraceError::Truncated { .. } => None,
            ReadTraceError::Invalid(e) => Some(e),
        }
    }
}

impl From<io::Error> for ReadTraceError {
    fn from(e: io::Error) -> Self {
        ReadTraceError::Io(e)
    }
}

impl From<TraceError> for ReadTraceError {
    fn from(e: TraceError) -> Self {
        ReadTraceError::Invalid(e)
    }
}

fn role_name(r: VarRole) -> String {
    match r {
        VarRole::Counter => "counter".into(),
        VarRole::Barrier => "barrier".into(),
        VarRole::Lock => "lock".into(),
        VarRole::FreqShared { producer_consumer } => {
            if producer_consumer {
                "freq-pc".into()
            } else {
                "freq".into()
            }
        }
        VarRole::Plain => "plain".into(),
    }
}

fn parse_role(s: &str) -> Option<VarRole> {
    Some(match s {
        "counter" => VarRole::Counter,
        "barrier" => VarRole::Barrier,
        "lock" => VarRole::Lock,
        "freq-pc" => VarRole::FreqShared {
            producer_consumer: true,
        },
        "freq" => VarRole::FreqShared {
            producer_consumer: false,
        },
        "plain" => VarRole::Plain,
        _ => return None,
    })
}

/// Writes `trace` in the versioned text format, decoding each stream one
/// chunk at a time (a dump never holds a stream's events all at once).
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use oscache_trace::{read_trace, write_trace, ChunkedTrace, Mode, StreamBuilder, TraceMeta};
///
/// let mut trace = ChunkedTrace::new(4, TraceMeta::default());
/// let mut b = StreamBuilder::new();
/// b.set_mode(Mode::Os);
/// b.idle(7);
/// trace.streams[2] = b.finish();
/// let mut buf = Vec::new();
/// write_trace(&trace, &mut buf)?;
/// let back = read_trace(&buf[..])?;
/// assert_eq!(back.n_cpus(), 4);
/// let events = |t: &ChunkedTrace| t.streams[2].iter().collect::<Vec<_>>();
/// assert_eq!(events(&back), events(&trace));
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// Returns any I/O error from the writer, including one from the final
/// flush.
pub fn write_trace<W: Write>(trace: &ChunkedTrace, mut w: W) -> io::Result<()> {
    writeln!(w, "oscache-trace 1")?;
    writeln!(w, "workload {}", trace.meta.workload)?;
    writeln!(w, "cpus {}", trace.n_cpus())?;
    for (_, s) in trace.meta.code.sites() {
        writeln!(
            w,
            "site {} {}",
            s.name,
            if s.is_loop { "loop" } else { "seq" }
        )?;
    }
    for (_, b) in trace.meta.code.blocks() {
        writeln!(w, "block {:x} {} {}", b.start.0, b.instrs, b.site.0)?;
    }
    for v in &trace.meta.vars {
        writeln!(
            w,
            "var {:x} {} {} {} {} {}",
            v.addr.0,
            v.size,
            v.class.name(),
            role_name(v.role),
            v.false_shared_group
                .map(|g| g.to_string())
                .unwrap_or_else(|| "-".into()),
            v.name
        )?;
    }
    for &(base, len) in &trace.meta.kernel_data {
        writeln!(w, "range {:x} {:x}", base.0, len)?;
    }
    for (cpu, stream) in trace.streams.iter().enumerate() {
        writeln!(w, "stream {cpu}")?;
        for e in stream {
            match e {
                Event::Exec { block } => writeln!(w, "E {}", block.0)?,
                Event::Read { addr, class } => writeln!(w, "R {:x} {}", addr.0, class.name())?,
                Event::Write { addr, class } => writeln!(w, "W {:x} {}", addr.0, class.name())?,
                Event::Prefetch { addr, class } => writeln!(w, "P {:x} {}", addr.0, class.name())?,
                Event::LockAcquire { lock, addr } => writeln!(w, "LA {} {:x}", lock.0, addr.0)?,
                Event::LockRelease { lock, addr } => writeln!(w, "LR {} {:x}", lock.0, addr.0)?,
                Event::Barrier {
                    barrier,
                    addr,
                    participants,
                } => writeln!(w, "B {} {:x} {}", barrier.0, addr.0, participants)?,
                Event::BlockOpBegin { op } => writeln!(
                    w,
                    "OB {:x} {:x} {:x} {} {} {}",
                    op.src.0,
                    op.dst.0,
                    op.len,
                    match op.kind {
                        BlockKind::Copy => "copy",
                        BlockKind::Zero => "zero",
                    },
                    op.src_class.name(),
                    op.dst_class.name(),
                )?,
                Event::BlockOpEnd => writeln!(w, "OE")?,
                Event::SetMode { mode } => {
                    writeln!(w, "M {}", if mode.is_os() { "os" } else { "user" })?
                }
                Event::Idle { cycles } => writeln!(w, "I {cycles}")?,
            }
        }
    }
    writeln!(w, "end")?;
    // A buffered writer dropped unflushed would discard this error.
    w.flush()
}

struct Parser {
    line_no: usize,
}

impl Parser {
    fn err<T>(&self, msg: impl fmt::Display) -> Result<T, ReadTraceError> {
        Err(ReadTraceError::Parse {
            line: self.line_no,
            msg: msg.to_string(),
        })
    }

    fn hex(&self, s: &str) -> Result<u32, ReadTraceError> {
        u32::from_str_radix(s, 16).or_else(|_| self.err(format!("bad hex value {s:?}")))
    }

    fn num<T: std::str::FromStr>(&self, s: &str) -> Result<T, ReadTraceError> {
        s.parse().or_else(|_| self.err(format!("bad number {s:?}")))
    }

    fn class(&self, s: &str) -> Result<DataClass, ReadTraceError> {
        DataClass::from_name(s).map_or_else(|| self.err(format!("unknown class {s:?}")), Ok)
    }
}

/// Reads a trace previously written by [`write_trace`], validating it.
///
/// Events encode straight into per-CPU [`ChunkedStreamBuilder`]s as lines
/// are parsed — no per-CPU `Vec<Event>` of the whole trace ever exists, so
/// peak memory while loading a dump is the finished compact encoding plus
/// one open chunk per CPU.
///
/// # Errors
///
/// Returns [`ReadTraceError::Parse`] when the input deviates from the
/// format (wrong magic, unknown event letter, missing fields, more than
/// [`MAX_CPUS`] CPUs),
/// [`ReadTraceError::Truncated`] when the input ends before the trailing
/// `end` marker, [`ReadTraceError::Invalid`] when the parsed trace fails
/// [`ChunkedTrace::validate`], and [`ReadTraceError::Io`] on reader
/// failures.
pub fn read_trace<R: BufRead>(r: R) -> Result<ChunkedTrace, ReadTraceError> {
    let mut p = Parser { line_no: 0 };
    let mut lines = r.lines();
    let mut next = |p: &mut Parser| -> Result<Option<String>, ReadTraceError> {
        p.line_no += 1;
        match lines.next() {
            Some(l) => Ok(Some(l?)),
            None => Ok(None),
        }
    };

    let magic = next(&mut p)?.unwrap_or_default();
    if magic.trim() != "oscache-trace 1" {
        return match magic.trim().strip_prefix("oscache-trace ") {
            Some(version) => p.err(format!("unsupported trace format version {version:?}")),
            None => p.err(format!("bad magic {magic:?}")),
        };
    }

    let mut meta = TraceMeta::default();
    let mut code = CodeLayout::new();
    let mut n_cpus = 0usize;
    let mut cpus_declared = false;
    let mut builders: Vec<ChunkedStreamBuilder> = Vec::new();
    let mut seen_streams: Vec<bool> = Vec::new();
    let mut cur: Option<usize> = None;
    let mut site_names: Vec<&'static str> = Vec::new();
    let mut saw_end = false;

    while let Some(line) = next(&mut p)? {
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        let mut it = line.split_whitespace();
        let tag = it.next().unwrap_or("");
        let mut arg = |p: &Parser| -> Result<&str, ReadTraceError> {
            it.next().map_or_else(|| p.err("missing field"), Ok)
        };
        match tag {
            "workload" => {
                meta.workload = line["workload ".len().min(line.len())..].to_string();
            }
            "cpus" => {
                if cpus_declared {
                    return p.err("duplicate `cpus` declaration");
                }
                cpus_declared = true;
                n_cpus = p.num(arg(&p)?)?;
                if n_cpus > MAX_CPUS {
                    return p.err(format!("{n_cpus} cpus exceeds the limit of {MAX_CPUS}"));
                }
                builders = (0..n_cpus).map(|_| ChunkedStreamBuilder::new()).collect();
                seen_streams = vec![false; n_cpus];
            }
            "site" => {
                let name = arg(&p)?.to_string();
                let kind = arg(&p)?;
                if kind != "loop" && kind != "seq" {
                    return p.err(format!("unknown site kind {kind:?}"));
                }
                // Site names become 'static via leak: a trace load is a
                // one-time operation and the layout lives as long as the
                // trace.
                let leaked: &'static str = Box::leak(name.into_boxed_str());
                site_names.push(leaked);
                code.add_site(leaked, kind == "loop");
            }
            "block" => {
                let start = p.hex(arg(&p)?)?;
                let instrs: u32 = p.num(arg(&p)?)?;
                if instrs == 0 {
                    return p.err("basic block with zero instructions");
                }
                let site: u16 = p.num(arg(&p)?)?;
                if site as usize >= site_names.len() {
                    return p.err(format!("block references unknown site {site}"));
                }
                code.add_block(Addr(start), instrs, SiteId(site));
            }
            "var" => {
                let addr = p.hex(arg(&p)?)?;
                let size = p.num(arg(&p)?)?;
                let class = p.class(arg(&p)?)?;
                let role = {
                    let s = arg(&p)?;
                    parse_role(s).map_or_else(|| p.err(format!("unknown role {s:?}")), Ok)?
                };
                let fsg = {
                    let s = arg(&p)?;
                    if s == "-" {
                        None
                    } else {
                        Some(p.num(s)?)
                    }
                };
                let name = it.collect::<Vec<_>>().join(" ");
                meta.vars.push(KernelVar {
                    name,
                    addr: Addr(addr),
                    size,
                    class,
                    role,
                    false_shared_group: fsg,
                });
            }
            "range" => {
                let base = p.hex(arg(&p)?)?;
                let len = p.hex(arg(&p)?)?;
                meta.kernel_data.push((Addr(base), len));
            }
            "stream" => {
                let cpu: usize = p.num(arg(&p)?)?;
                if cpu >= n_cpus {
                    return p.err(format!("stream {cpu} out of range"));
                }
                if seen_streams[cpu] {
                    return p.err(format!("duplicate stream {cpu}"));
                }
                seen_streams[cpu] = true;
                cur = Some(cpu);
            }
            "end" => {
                saw_end = true;
                break;
            }
            ev => {
                let Some(cpu) = cur else {
                    return p.err("event before any `stream` header");
                };
                let e = match ev {
                    "E" => Event::Exec {
                        block: BlockId(p.num(arg(&p)?)?),
                    },
                    "R" => Event::Read {
                        addr: Addr(p.hex(arg(&p)?)?),
                        class: p.class(arg(&p)?)?,
                    },
                    "W" => Event::Write {
                        addr: Addr(p.hex(arg(&p)?)?),
                        class: p.class(arg(&p)?)?,
                    },
                    "P" => Event::Prefetch {
                        addr: Addr(p.hex(arg(&p)?)?),
                        class: p.class(arg(&p)?)?,
                    },
                    "LA" => Event::LockAcquire {
                        lock: LockId(p.num(arg(&p)?)?),
                        addr: Addr(p.hex(arg(&p)?)?),
                    },
                    "LR" => Event::LockRelease {
                        lock: LockId(p.num(arg(&p)?)?),
                        addr: Addr(p.hex(arg(&p)?)?),
                    },
                    "B" => Event::Barrier {
                        barrier: BarrierId(p.num(arg(&p)?)?),
                        addr: Addr(p.hex(arg(&p)?)?),
                        participants: p.num(arg(&p)?)?,
                    },
                    "OB" => {
                        let src = Addr(p.hex(arg(&p)?)?);
                        let dst = Addr(p.hex(arg(&p)?)?);
                        let len = p.hex(arg(&p)?)?;
                        let kind = match arg(&p)? {
                            "copy" => BlockKind::Copy,
                            "zero" => BlockKind::Zero,
                            other => return p.err(format!("unknown block kind {other:?}")),
                        };
                        Event::BlockOpBegin {
                            op: BlockOp {
                                src,
                                dst,
                                len,
                                kind,
                                src_class: p.class(arg(&p)?)?,
                                dst_class: p.class(arg(&p)?)?,
                            },
                        }
                    }
                    "OE" => Event::BlockOpEnd,
                    "M" => Event::SetMode {
                        mode: match arg(&p)? {
                            "os" => Mode::Os,
                            "user" => Mode::User,
                            other => return p.err(format!("unknown mode {other:?}")),
                        },
                    },
                    "I" => Event::Idle {
                        cycles: p.num(arg(&p)?)?,
                    },
                    other => return p.err(format!("unknown event tag {other:?}")),
                };
                builders[cpu].push(e);
            }
        }
    }

    if !saw_end {
        return Err(ReadTraceError::Truncated { line: p.line_no });
    }

    meta.code = code;
    let mut trace = ChunkedTrace::new(n_cpus, meta);
    for (cpu, b) in builders.into_iter().enumerate() {
        trace.streams[cpu] = b.finish();
    }
    trace.validate()?;
    Ok(trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StreamBuilder;

    fn sample() -> ChunkedTrace {
        let mut meta = TraceMeta::default();
        let site = meta.code.add_site("seq", false);
        let lsite = meta.code.add_site("loop", true);
        let bb = meta.code.add_block(Addr(0x1000), 8, site);
        meta.code.add_block(Addr(0x2000), 4, lsite);
        meta.vars.push(KernelVar {
            name: "vmmeter.v_intr".into(),
            addr: Addr(0x0100_0000),
            size: 4,
            class: DataClass::InfreqCounter,
            role: VarRole::Counter,
            false_shared_group: Some(3),
        });
        meta.kernel_data.push((Addr(0x0100_0000), 0x4000));
        let mut t = ChunkedTrace::new(2, meta);
        let mut b = StreamBuilder::new();
        b.set_mode(Mode::Os);
        b.exec(bb);
        b.read(Addr(0x0100_0000), DataClass::InfreqCounter);
        b.lock_acquire(LockId(2), Addr(0x0100_0300));
        b.write(Addr(0x0100_0004), DataClass::FreqShared);
        b.lock_release(LockId(2), Addr(0x0100_0300));
        b.barrier(BarrierId(1), Addr(0x0100_0340), 2);
        b.begin_block_copy(
            Addr(0x1000_0000),
            Addr(0x1100_0000),
            64,
            DataClass::PageFrame,
            DataClass::UserData,
        );
        b.read(Addr(0x1000_0000), DataClass::PageFrame);
        b.write(Addr(0x1100_0000), DataClass::UserData);
        b.end_block_op();
        b.prefetch(Addr(0x0100_0010), DataClass::SyscallTable);
        b.idle(42);
        t.streams[0] = b.finish();
        let mut b1 = StreamBuilder::new();
        b1.set_mode(Mode::Os);
        b1.barrier(BarrierId(1), Addr(0x0100_0340), 2);
        t.streams[1] = b1.finish();
        t
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let t = sample();
        let mut buf = Vec::new();
        write_trace(&t, &mut buf).unwrap();
        let back = read_trace(&buf[..]).unwrap();
        assert_eq!(back.meta.workload, t.meta.workload);
        assert_eq!(back.n_cpus(), t.n_cpus());
        assert_eq!(back.meta.vars.len(), 1);
        let v = &back.meta.vars[0];
        assert_eq!(v.name, "vmmeter.v_intr");
        assert_eq!(v.role, VarRole::Counter);
        assert_eq!(v.false_shared_group, Some(3));
        assert_eq!(back.meta.kernel_data, t.meta.kernel_data);
        assert_eq!(back.meta.code.block_count(), t.meta.code.block_count());
        assert_eq!(back.meta.code.site_count(), t.meta.code.site_count());
        for cpu in 0..2 {
            let events = |s: &ChunkedTrace| s.streams[cpu].iter().collect::<Vec<_>>();
            assert_eq!(events(&back), events(&t));
        }
    }

    #[test]
    fn rejects_bad_magic() {
        let err = read_trace(&b"not a trace\n"[..]).unwrap_err();
        assert!(matches!(err, ReadTraceError::Parse { line: 1, .. }));
        assert!(err.to_string().contains("bad magic"));
    }

    #[test]
    fn rejects_unsupported_version() {
        let err = read_trace(&b"oscache-trace 99\ncpus 1\nend\n"[..]).unwrap_err();
        assert!(matches!(err, ReadTraceError::Parse { line: 1, .. }));
        assert!(
            err.to_string().contains("unsupported trace format version"),
            "{err}"
        );
    }

    #[test]
    fn rejects_truncated_dump() {
        // A full dump with the trailing `end` (and some events) cut off
        // must fail with the typed truncation error, not a generic parse
        // error — callers distinguish "re-dump this" from "fix this line".
        let t = sample();
        let mut buf = Vec::new();
        write_trace(&t, &mut buf).unwrap();
        let cut = buf.len() - "end\n".len();
        assert!(buf[cut..].starts_with(b"end"));
        let err = read_trace(&buf[..cut]).unwrap_err();
        assert!(matches!(err, ReadTraceError::Truncated { .. }), "{err:?}");
        assert!(err.to_string().contains("truncated"), "{err}");
        // Cutting mid-stream (not just the marker) reports the same way;
        // cut at a line boundary so the failure is the missing `end`, not
        // a half-written line.
        let half = buf.len() / 2;
        let cut = buf[..half].iter().rposition(|&b| b == b'\n').unwrap() + 1;
        let err = read_trace(&buf[..cut]).unwrap_err();
        assert!(matches!(err, ReadTraceError::Truncated { .. }), "{err:?}");
    }

    #[test]
    fn rejects_duplicate_stream() {
        let input = b"oscache-trace 1\nworkload x\ncpus 2\nstream 0\nI 5\nstream 0\nend\n";
        let err = read_trace(&input[..]).unwrap_err();
        assert!(matches!(err, ReadTraceError::Parse { line: 6, .. }));
        assert!(err.to_string().contains("duplicate stream 0"), "{err}");
    }

    #[test]
    fn rejects_duplicate_cpus_and_zero_instr_block() {
        let input = b"oscache-trace 1\nworkload x\ncpus 2\ncpus 4\nend\n";
        assert!(read_trace(&input[..]).is_err());
        let input = b"oscache-trace 1\nworkload x\ncpus 1\nsite s seq\nblock 1000 0 0\nend\n";
        let err = read_trace(&input[..]).unwrap_err();
        assert!(err.to_string().contains("zero instructions"), "{err}");
    }

    #[test]
    fn rejects_structurally_invalid_trace() {
        // Parses fine, but the lock is never released: caught by validate().
        let input = b"oscache-trace 1\nworkload x\ncpus 1\nstream 0\nLA 3 40\nend\n";
        let err = read_trace(&input[..]).unwrap_err();
        assert!(matches!(
            err,
            ReadTraceError::Invalid(TraceError::LockHeldAtEnd { .. })
        ));
    }

    #[test]
    fn rejects_event_outside_stream() {
        let input = b"oscache-trace 1\nworkload x\ncpus 1\nR 100 UserData\n";
        let err = read_trace(&input[..]).unwrap_err();
        assert!(err.to_string().contains("before any `stream`"));
    }

    #[test]
    fn rejects_unknown_event_and_class() {
        let input = b"oscache-trace 1\nworkload x\ncpus 1\nstream 0\nZZ 1\n";
        assert!(read_trace(&input[..]).is_err());
        let input = b"oscache-trace 1\nworkload x\ncpus 1\nstream 0\nR 100 NotAClass\n";
        assert!(read_trace(&input[..]).is_err());
    }

    #[test]
    fn rejects_out_of_range_stream_and_site() {
        let input = b"oscache-trace 1\nworkload x\ncpus 1\nstream 5\n";
        assert!(read_trace(&input[..]).is_err());
        let input = b"oscache-trace 1\nworkload x\ncpus 1\nblock 0 4 9\n";
        assert!(read_trace(&input[..]).is_err());
    }

    #[test]
    fn error_messages_carry_line_numbers() {
        let input = b"oscache-trace 1\nworkload x\ncpus 1\nstream 0\nI notanumber\n";
        let err = read_trace(&input[..]).unwrap_err();
        assert!(err.to_string().contains("line 5"), "{err}");
    }

    /// A sink whose every write fails, like a full disk.
    struct FullDisk;

    impl Write for FullDisk {
        fn write(&mut self, _: &[u8]) -> io::Result<usize> {
            Err(io::Error::other("no space left on device"))
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_failed_final_flush_is_an_error() {
        // The whole dump fits the buffer, so the sink is first written at
        // the final flush; dropping the `BufWriter` would lose its error.
        let err = write_trace(&sample(), io::BufWriter::new(FullDisk)).unwrap_err();
        assert!(err.to_string().contains("no space"), "{err}");
    }

    #[test]
    fn workload_names_with_spaces_and_plus_survive() {
        let mut t = sample();
        t.meta.workload = "TRFD+Make variant 2".into();
        let mut buf = Vec::new();
        write_trace(&t, &mut buf).unwrap();
        let back = read_trace(&buf[..]).unwrap();
        assert_eq!(back.meta.workload, "TRFD+Make variant 2");
    }
}
