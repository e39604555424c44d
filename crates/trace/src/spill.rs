//! Durable spill-to-disk storage for sealed chunks, plus the memory-budget
//! governor that decides when to use it.
//!
//! A [`SpillStore`] owns one segment file per CPU under a process-private
//! scratch directory. Sealed delta-encoded chunks are appended as
//! length-prefixed frames, each carrying a CRC-32 of its payload, behind a
//! CRC-covered segment header that binds the store to its trace identity
//! (schema / scale / seed / CPU count) exactly like the run journal's
//! header (DESIGN.md §13.2). Segments are written as `cpu-NN.tmp` and
//! renamed to `cpu-NN.seg` on seal, so a reader never observes a
//! half-written file by name — the same temp-then-rename idiom the journal
//! uses.
//!
//! Robustness model (DESIGN.md §18):
//!
//! * **Detection**: every frame read re-checks its CRC and length; a torn
//!   tail, a hole from a short write, or a flipped bit surfaces as a typed
//!   [`SpillError`] naming the segment and frame, never as silently wrong
//!   events.
//! * **Recovery**: a corrupt frame is *quarantined and rebuilt* — the
//!   store's rebuilder re-derives the chunk's true bytes from the
//!   deterministic generator, verifies them against the frame's recorded
//!   CRC, caches them, and the read succeeds. One `class=spill-salvage`
//!   stderr line per salvaged frame keeps the repair observable.
//! * **Degradation**: a failed *write* (ENOSPC, a vanished directory)
//!   never corrupts anything — the chunk simply stays in memory and the
//!   [`MemBudget`] notes the degradation, so a full disk turns into an
//!   `overloaded` answer at the budget's enforcement points instead of an
//!   abort.
//! * **Restart safety**: scratch directories are keyed by PID. A process
//!   killed `-9` mid-spill leaves files no successor ever opens; the next
//!   process sweeps directories whose owning PID is gone.
//!
//! Injected faults ([`IoFaultPlan`], `--inject-io seed[:class]`) corrupt
//! the write path deterministically — short writes, single-bit flips, and
//! sticky ENOSPC — so the detection and recovery paths above stay
//! continuously exercised, in the spirit of `memsys::faults`.

use crate::{fnv1a, lock_tolerant};
use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

// ---- CRC-32 (IEEE 802.3, reflected) ----------------------------------------

/// Slicing-by-8 tables: `t[0]` is the classic bytewise table, and `t[k][b]`
/// is the CRC contribution of byte `b` followed by `k` zero bytes, so eight
/// lookups fold a whole 8-byte word into the running CRC.
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut n = 0;
    while n < 256 {
        let mut c = n as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 == 1 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        t[0][n] = c;
        n += 1;
    }
    let mut n = 0;
    while n < 256 {
        let mut k = 1;
        while k < 8 {
            let prev = t[k - 1][n];
            t[k][n] = (prev >> 8) ^ t[0][(prev & 0xff) as usize];
            k += 1;
        }
        n += 1;
    }
    t
}

static CRC_TABLES: [[u32; 256]; 8] = crc32_tables();

/// CRC-32 (IEEE) of `bytes` — the frame and header checksum. Eight bytes
/// per step (slicing-by-8), then bytewise over the tail.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        c = t[7][(lo & 0xff) as usize]
            ^ t[6][((lo >> 8) & 0xff) as usize]
            ^ t[5][((lo >> 16) & 0xff) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xff) as usize]
            ^ t[2][((hi >> 8) & 0xff) as usize]
            ^ t[1][((hi >> 16) & 0xff) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        c = t[0][usize::from((c as u8) ^ b)] ^ (c >> 8);
    }
    !c
}

// ---- errors ----------------------------------------------------------------

/// What went wrong at a spill segment.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SpillErrorKind {
    /// An OS-level I/O failure (rendered message).
    Io(String),
    /// The device is out of space (real `ENOSPC` or injected).
    NoSpace,
    /// A frame's payload failed its CRC check.
    Corrupt {
        /// CRC recorded at write time.
        expected: u32,
        /// CRC of the bytes actually read.
        found: u32,
    },
    /// A frame could not be read back in full (torn tail / short write).
    Torn {
        /// Bytes the frame should hold.
        expected: u32,
        /// Bytes available.
        got: u64,
    },
    /// A segment header does not match the identity this store expects.
    HeaderMismatch {
        /// Which field disagreed (`"magic"`, `"schema"`, ...).
        field: &'static str,
        /// Value found in the file.
        found: u64,
        /// Value expected.
        want: u64,
    },
}

/// A typed spill failure: the segment, the frame (when one is involved),
/// and the kind.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpillError {
    /// Segment file name, e.g. `cpu-02.seg`.
    pub segment: String,
    /// Frame ordinal within the segment, when the failure is per-frame.
    pub frame: Option<u32>,
    /// What went wrong.
    pub kind: SpillErrorKind,
}

impl std::fmt::Display for SpillError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "spill segment {}", self.segment)?;
        if let Some(fr) = self.frame {
            write!(f, " frame {fr}")?;
        }
        match &self.kind {
            SpillErrorKind::Io(m) => write!(f, ": io error: {m}"),
            SpillErrorKind::NoSpace => write!(f, ": no space on device"),
            SpillErrorKind::Corrupt { expected, found } => {
                write!(f, ": payload crc {found:#010x}, expected {expected:#010x}")
            }
            SpillErrorKind::Torn { expected, got } => {
                write!(f, ": short frame ({got} of {expected} bytes)")
            }
            SpillErrorKind::HeaderMismatch { field, found, want } => {
                write!(f, ": header {field} is {found}, expected {want}")
            }
        }
    }
}

impl std::error::Error for SpillError {}

fn io_err(segment: &str, frame: Option<u32>, e: &io::Error) -> SpillError {
    let kind = if e.raw_os_error() == Some(28) {
        // ENOSPC
        SpillErrorKind::NoSpace
    } else {
        SpillErrorKind::Io(e.to_string())
    };
    SpillError {
        segment: segment.to_string(),
        frame,
        kind,
    }
}

// ---- segment header --------------------------------------------------------

/// Spill segment format version.
pub const SPILL_SCHEMA: u32 = 1;

const MAGIC: &[u8; 4] = b"OSSP";
/// On-disk header: magic + schema + cpu + n_cpus + scale_bits + seed + crc.
const HEADER_LEN: usize = 4 + 4 + 4 + 4 + 8 + 8 + 4;

/// The trace identity a store binds its segments to, mirroring the
/// journal header's schema/scale/seed/n_cpus binding: a segment can never
/// be confused with one written for a different build.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StoreIdentity {
    /// `scale.to_bits()` of the trace build.
    pub scale_bits: u64,
    /// RNG seed of the trace build.
    pub seed: u64,
    /// CPU count of the traced machine.
    pub n_cpus: u32,
}

fn encode_header(id: &StoreIdentity, cpu: u32) -> [u8; HEADER_LEN] {
    let mut h = [0u8; HEADER_LEN];
    h[0..4].copy_from_slice(MAGIC);
    h[4..8].copy_from_slice(&SPILL_SCHEMA.to_le_bytes());
    h[8..12].copy_from_slice(&cpu.to_le_bytes());
    h[12..16].copy_from_slice(&id.n_cpus.to_le_bytes());
    h[16..24].copy_from_slice(&id.scale_bits.to_le_bytes());
    h[24..32].copy_from_slice(&id.seed.to_le_bytes());
    let crc = crc32(&h[..HEADER_LEN - 4]);
    h[HEADER_LEN - 4..].copy_from_slice(&crc.to_le_bytes());
    h
}

/// Reads and verifies a segment header, returning `(identity, cpu)`.
/// Used by tests and restart tooling; the writing process never re-reads
/// its own headers.
pub fn read_header(path: &Path, want: &StoreIdentity) -> Result<(StoreIdentity, u32), SpillError> {
    let segment = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_default();
    let mut f = File::open(path).map_err(|e| io_err(&segment, None, &e))?;
    let mut h = [0u8; HEADER_LEN];
    f.read_exact(&mut h)
        .map_err(|e| io_err(&segment, None, &e))?;
    let mismatch = |field, found, want_v| SpillError {
        segment: segment.clone(),
        frame: None,
        kind: SpillErrorKind::HeaderMismatch {
            field,
            found,
            want: want_v,
        },
    };
    let crc = u32::from_le_bytes(h[HEADER_LEN - 4..].try_into().unwrap());
    let actual = crc32(&h[..HEADER_LEN - 4]);
    if crc != actual {
        return Err(mismatch("crc", u64::from(actual), u64::from(crc)));
    }
    if &h[0..4] != MAGIC {
        return Err(mismatch(
            "magic",
            u64::from(u32::from_le_bytes(h[0..4].try_into().unwrap())),
            u64::from(u32::from_le_bytes(*MAGIC)),
        ));
    }
    let schema = u32::from_le_bytes(h[4..8].try_into().unwrap());
    if schema != SPILL_SCHEMA {
        return Err(mismatch(
            "schema",
            u64::from(schema),
            u64::from(SPILL_SCHEMA),
        ));
    }
    let cpu = u32::from_le_bytes(h[8..12].try_into().unwrap());
    let id = StoreIdentity {
        n_cpus: u32::from_le_bytes(h[12..16].try_into().unwrap()),
        scale_bits: u64::from_le_bytes(h[16..24].try_into().unwrap()),
        seed: u64::from_le_bytes(h[24..32].try_into().unwrap()),
    };
    if id.n_cpus != want.n_cpus {
        return Err(mismatch(
            "n_cpus",
            u64::from(id.n_cpus),
            u64::from(want.n_cpus),
        ));
    }
    if id.scale_bits != want.scale_bits {
        return Err(mismatch("scale_bits", id.scale_bits, want.scale_bits));
    }
    if id.seed != want.seed {
        return Err(mismatch("seed", id.seed, want.seed));
    }
    Ok((id, cpu))
}

// ---- fault injection -------------------------------------------------------

/// A disk-fault class [`IoFaultPlan`] can inject at the write path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IoFaultClass {
    /// Only a prefix of the frame's payload reaches the file.
    ShortWrite,
    /// One bit of the payload is flipped on its way to the file.
    BitFlip,
    /// The write fails with ENOSPC; the device stays full from then on.
    NoSpace,
}

impl IoFaultClass {
    fn parse(s: &str) -> Option<IoFaultClass> {
        match s {
            "short-write" => Some(IoFaultClass::ShortWrite),
            "bit-flip" => Some(IoFaultClass::BitFlip),
            "enospc" => Some(IoFaultClass::NoSpace),
            _ => None,
        }
    }
}

/// Seeded, deterministic injection of disk faults at the [`SpillStore`]
/// write path (`--inject-io seed[:class]`). Roughly one frame in seven is
/// targeted; which frames, and (when no class is pinned) which fault each
/// gets, is a pure function of `(seed, cpu, frame)` — so a failing run
/// replays exactly.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IoFaultPlan {
    /// Injection seed.
    pub seed: u64,
    /// Pin every injected fault to one class, or rotate by hash.
    pub class: Option<IoFaultClass>,
}

impl IoFaultPlan {
    /// Parses `seed` or `seed:class` (class ∈ `short-write`, `bit-flip`,
    /// `enospc`).
    pub fn parse(s: &str) -> Result<IoFaultPlan, String> {
        let (seed_s, class) = match s.split_once(':') {
            Some((a, b)) => {
                let c = IoFaultClass::parse(b).ok_or_else(|| {
                    format!("unknown I/O fault class {b:?} (short-write, bit-flip, enospc)")
                })?;
                (a, Some(c))
            }
            None => (s, None),
        };
        let seed: u64 = seed_s
            .parse()
            .map_err(|_| format!("bad I/O fault seed {seed_s:?}"))?;
        Ok(IoFaultPlan { seed, class })
    }

    /// The fault to inject when writing `frame` of `cpu`'s segment, if any.
    pub fn fires(&self, cpu: u32, frame: u32) -> Option<IoFaultClass> {
        let mut key = [0u8; 24];
        key[0..8].copy_from_slice(&self.seed.to_le_bytes());
        key[8..16].copy_from_slice(&u64::from(cpu).to_le_bytes());
        key[16..24].copy_from_slice(&u64::from(frame).to_le_bytes());
        let h = fnv1a(&key);
        if !h.is_multiple_of(7) {
            return None;
        }
        Some(self.class.unwrap_or(match (h >> 3) % 3 {
            0 => IoFaultClass::ShortWrite,
            1 => IoFaultClass::BitFlip,
            _ => IoFaultClass::NoSpace,
        }))
    }
}

// ---- memory budget governor ------------------------------------------------

/// The memory-budget governor (`--mem-budget-mb`): decides at seal time
/// whether a chunk spills or stays resident, and accounts for both.
///
/// Accounting model: `resident` is the encoded bytes of governed chunks
/// held in memory. Governed traces are cached for the life of the process
/// (the trace cache pins base traces and analyses), so the counter is
/// monotonic in practice; [`MemBudget::release`] exists for eviction
/// paths. Chunks spill once `resident` would exceed **half** the budget —
/// the other half is headroom for decode windows, simulator state, and
/// the allocator, so the *process* stays under the budget, not just the
/// chunk bytes.
///
/// When spilling is degraded (a write failed; see
/// [`MemBudget::degraded`]) and `resident` exceeds the full budget, the
/// budget "cannot be met": enforcement points answer `overloaded`
/// instead of letting the process grow until the OOM killer answers for
/// them.
#[derive(Debug)]
pub struct MemBudget {
    budget: u64,
    resident: AtomicU64,
    spilled: AtomicU64,
    spill_ns: AtomicU64,
    degraded: AtomicBool,
}

impl MemBudget {
    /// A governor for a budget given in MB.
    pub fn new_mb(budget_mb: u64) -> Arc<MemBudget> {
        Arc::new(MemBudget {
            budget: budget_mb.saturating_mul(1024 * 1024),
            resident: AtomicU64::new(0),
            spilled: AtomicU64::new(0),
            spill_ns: AtomicU64::new(0),
            degraded: AtomicBool::new(false),
        })
    }

    /// The budget in bytes.
    pub fn budget_bytes(&self) -> u64 {
        self.budget
    }

    /// True when a chunk of `len` bytes should spill rather than stay
    /// resident.
    pub fn wants_spill(&self, len: usize) -> bool {
        self.resident.load(Ordering::Relaxed) + len as u64 > self.budget / 2
    }

    /// Accounts for a chunk kept resident.
    pub fn charge_inline(&self, len: usize) {
        self.resident.fetch_add(len as u64, Ordering::Relaxed);
    }

    /// Releases resident accounting (eviction / drop paths).
    pub fn release(&self, len: usize) {
        self.resident.fetch_sub(len as u64, Ordering::Relaxed);
    }

    /// Accounts for a chunk spilled to disk in `ns` nanoseconds.
    pub fn note_spilled(&self, len: usize, ns: u64) {
        self.spilled.fetch_add(len as u64, Ordering::Relaxed);
        self.spill_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Marks the governor degraded: a spill write failed, so chunks that
    /// wanted to spill are staying resident.
    pub fn note_degraded(&self) {
        self.degraded.store(true, Ordering::Relaxed);
    }

    /// True when a spill write has failed.
    pub fn degraded(&self) -> bool {
        self.degraded.load(Ordering::Relaxed)
    }

    /// True when the budget cannot be met: spilling is degraded and the
    /// resident governed bytes alone exceed the full budget.
    pub fn exhausted(&self) -> bool {
        self.degraded() && self.resident.load(Ordering::Relaxed) > self.budget
    }

    /// Governed bytes currently resident in memory.
    pub fn resident_bytes(&self) -> u64 {
        self.resident.load(Ordering::Relaxed)
    }

    /// Bytes spilled to disk so far.
    pub fn spilled_bytes(&self) -> u64 {
        self.spilled.load(Ordering::Relaxed)
    }

    /// Wall-clock milliseconds spent writing spill frames so far.
    pub fn spill_ms(&self) -> f64 {
        self.spill_ns.load(Ordering::Relaxed) as f64 / 1e6
    }
}

// ---- the store -------------------------------------------------------------

/// Where one spilled chunk lives: its segment, its ordinal within the
/// segment, its chunk index within the owning stream (the rebuilder's
/// key), and the byte range + CRC that pin its true contents.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FrameRef {
    /// CPU whose segment holds the frame.
    pub cpu: u32,
    /// Frame ordinal within the segment file.
    pub frame: u32,
    /// Chunk index within the owning stream (for rebuild).
    pub chunk: u32,
    /// Byte offset of the frame's payload in the segment file.
    pub offset: u64,
    /// Payload length in bytes.
    pub len: u32,
    /// CRC-32 of the true payload, recorded before any injected fault.
    pub crc: u32,
}

/// Re-derives a spilled chunk's true encoded bytes from first principles
/// (the deterministic generator or transform), keyed by `(cpu, chunk)`.
pub type Rebuilder = dyn Fn(usize, usize) -> Option<Vec<u8>> + Send + Sync;

/// Everything a chunk builder needs to spill at seal time: the store, the
/// CPU whose segment it appends to, and the governor that decides whether
/// each sealed chunk spills or stays resident.
#[derive(Clone, Debug)]
pub struct SpillTarget {
    /// Destination store.
    pub store: Arc<SpillStore>,
    /// CPU stream this builder produces (segment index).
    pub cpu: usize,
    /// The memory-budget governor consulted per sealed chunk.
    pub budget: Arc<MemBudget>,
}

enum SegmentState {
    /// Open for appends (and reads of already-written frames).
    Writing { file: File, next: u64, frames: u32 },
    /// Renamed to `.seg`; read-only from here.
    Sealed { file: File },
    /// The segment is unusable (seal failed); reads go straight to the
    /// rebuilder.
    Failed,
}

struct Segment {
    name: String,
    state: SegmentState,
}

static STORE_COUNTER: AtomicU64 = AtomicU64::new(0);
static GC_ONCE: std::sync::Once = std::sync::Once::new();

/// Quarantined-and-rebuilt frame payloads, keyed by `(cpu, chunk)`.
type SalvageCache = Mutex<HashMap<(u32, u32), Arc<Vec<u8>>>>;

/// A per-trace spill store: one segment file per CPU under
/// `$TMPDIR/oscache-spill-<pid>/<label>-<n>/`.
pub struct SpillStore {
    dir: PathBuf,
    identity: StoreIdentity,
    segments: Vec<Mutex<Segment>>,
    faults: Option<IoFaultPlan>,
    /// Sticky ENOSPC: once the device is full, stop trying.
    no_space: AtomicBool,
    rebuilder: Mutex<Option<Box<Rebuilder>>>,
    /// Quarantined frames already rebuilt, keyed by `(cpu, chunk)`.
    salvaged: SalvageCache,
    salvages: AtomicU64,
}

impl std::fmt::Debug for SpillStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpillStore")
            .field("dir", &self.dir)
            .field("identity", &self.identity)
            .field("salvages", &self.salvages.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

/// The process-private spill root, `$TMPDIR/oscache-spill-<pid>`.
pub fn spill_root() -> PathBuf {
    std::env::temp_dir().join(format!("oscache-spill-{}", std::process::id()))
}

/// Removes spill roots left behind by processes that no longer exist
/// (kill -9 mid-spill). Best-effort; errors are ignored. Runs once per
/// process, from the first store creation.
fn sweep_dead_roots() {
    let tmp = std::env::temp_dir();
    let Ok(entries) = fs::read_dir(&tmp) else {
        return;
    };
    let me = std::process::id();
    for e in entries.flatten() {
        let name = e.file_name();
        let Some(pid) = name
            .to_str()
            .and_then(|n| n.strip_prefix("oscache-spill-"))
            .and_then(|p| p.parse::<u32>().ok())
        else {
            continue;
        };
        if pid != me && !Path::new(&format!("/proc/{pid}")).exists() {
            let _ = fs::remove_dir_all(e.path());
        }
    }
}

impl SpillStore {
    /// Creates a store with one open segment per CPU, headers written.
    ///
    /// `label` names the store's directory (diagnostics only); `faults`
    /// arms write-path fault injection.
    pub fn create(
        label: &str,
        identity: StoreIdentity,
        n_cpus: usize,
        faults: Option<IoFaultPlan>,
    ) -> Result<Arc<SpillStore>, SpillError> {
        GC_ONCE.call_once(sweep_dead_roots);
        let clean: String = label
            .chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                    c
                } else {
                    '_'
                }
            })
            .collect();
        let n = STORE_COUNTER.fetch_add(1, Ordering::Relaxed);
        let dir = spill_root().join(format!("{clean}-{n}"));
        fs::create_dir_all(&dir).map_err(|e| io_err(&dir.to_string_lossy(), None, &e))?;
        let mut segments = Vec::with_capacity(n_cpus);
        for cpu in 0..n_cpus {
            let name = format!("cpu-{cpu:02}");
            let path = dir.join(format!("{name}.tmp"));
            let file = OpenOptions::new()
                .read(true)
                .write(true)
                .create_new(true)
                .open(&path)
                .map_err(|e| io_err(&name, None, &e))?;
            let header = encode_header(&identity, cpu as u32);
            file.write_all_at(&header, 0)
                .map_err(|e| io_err(&name, None, &e))?;
            segments.push(Mutex::new(Segment {
                name,
                state: SegmentState::Writing {
                    file,
                    next: HEADER_LEN as u64,
                    frames: 0,
                },
            }));
        }
        Ok(Arc::new(SpillStore {
            dir,
            identity,
            segments,
            faults,
            no_space: AtomicBool::new(false),
            rebuilder: Mutex::new(None),
            salvaged: Mutex::new(HashMap::new()),
            salvages: AtomicU64::new(0),
        }))
    }

    /// The store's directory (tests inspect and corrupt it).
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The identity its segment headers bind.
    pub fn identity(&self) -> StoreIdentity {
        self.identity
    }

    /// Installs the function that re-derives a chunk's true bytes when a
    /// frame fails verification. Replaces any previous rebuilder.
    pub fn set_rebuilder(&self, f: Box<Rebuilder>) {
        *lock_tolerant(&self.rebuilder) = Some(f);
    }

    /// Frames salvaged (quarantined and rebuilt) so far.
    pub fn salvage_count(&self) -> u64 {
        self.salvages.load(Ordering::Relaxed)
    }

    /// Appends one sealed chunk (`chunk`-th of `cpu`'s stream) as a frame.
    ///
    /// On success the returned [`FrameRef`] pins the payload's true CRC —
    /// injected corruption (short write, bit flip) damages only the file,
    /// so verification at read time catches it. A failed write (real or
    /// injected ENOSPC) leaves the file's committed frames intact and
    /// returns an error; the caller keeps the chunk in memory.
    pub fn append_frame(
        &self,
        cpu: usize,
        chunk: usize,
        bytes: &[u8],
    ) -> Result<FrameRef, SpillError> {
        let mut seg = lock_tolerant(&self.segments[cpu]);
        let name = seg.name.clone();
        if self.no_space.load(Ordering::Relaxed) {
            return Err(SpillError {
                segment: name,
                frame: None,
                kind: SpillErrorKind::NoSpace,
            });
        }
        let SegmentState::Writing { file, next, frames } = &mut seg.state else {
            return Err(SpillError {
                segment: name,
                frame: None,
                kind: SpillErrorKind::Io("segment is not open for writing".into()),
            });
        };
        let frame_no = *frames;
        let crc = crc32(bytes);
        let fault = self.faults.and_then(|p| p.fires(cpu as u32, frame_no));
        if fault == Some(IoFaultClass::NoSpace) {
            self.no_space.store(true, Ordering::Relaxed);
            return Err(SpillError {
                segment: name,
                frame: Some(frame_no),
                kind: SpillErrorKind::NoSpace,
            });
        }
        let offset = *next;
        let mut prefix = [0u8; 8];
        prefix[0..4].copy_from_slice(&(bytes.len() as u32).to_le_bytes());
        prefix[4..8].copy_from_slice(&crc.to_le_bytes());
        let write = |payload: &[u8]| -> io::Result<()> {
            file.write_all_at(&prefix, offset)?;
            file.write_all_at(payload, offset + 8)
        };
        let res = match fault {
            Some(IoFaultClass::ShortWrite) => write(&bytes[..bytes.len() / 2]),
            Some(IoFaultClass::BitFlip) => {
                let mut flipped = bytes.to_vec();
                let bit = fnv1a(&offset.to_le_bytes()) as usize % (flipped.len() * 8);
                flipped[bit / 8] ^= 1 << (bit % 8);
                write(&flipped)
            }
            _ => write(bytes),
        };
        if let Err(e) = res {
            let err = io_err(&name, Some(frame_no), &e);
            if err.kind == SpillErrorKind::NoSpace {
                self.no_space.store(true, Ordering::Relaxed);
            }
            return Err(err);
        }
        *next = offset + 8 + bytes.len() as u64;
        *frames += 1;
        Ok(FrameRef {
            cpu: cpu as u32,
            frame: frame_no,
            chunk: chunk as u32,
            offset: offset + 8,
            len: bytes.len() as u32,
            crc,
        })
    }

    /// Seals `cpu`'s segment: renames `cpu-NN.tmp` to `cpu-NN.seg`. The
    /// open handle stays valid across the rename, so committed frames
    /// remain readable even if the rename fails (the segment is then
    /// marked failed and reads fall back to the rebuilder).
    pub fn seal(&self, cpu: usize) -> Result<(), SpillError> {
        let mut seg = lock_tolerant(&self.segments[cpu]);
        let name = seg.name.clone();
        match std::mem::replace(&mut seg.state, SegmentState::Failed) {
            SegmentState::Writing { file, .. } => {
                let from = self.dir.join(format!("{name}.tmp"));
                let to = self.dir.join(format!("{name}.seg"));
                match fs::rename(&from, &to) {
                    Ok(()) => {
                        seg.state = SegmentState::Sealed { file };
                        Ok(())
                    }
                    Err(e) => Err(io_err(&name, None, &e)),
                }
            }
            other => {
                seg.state = other;
                Ok(())
            }
        }
    }

    /// The sealed path of `cpu`'s segment (tests re-open headers).
    pub fn segment_path(&self, cpu: usize) -> PathBuf {
        self.dir.join(format!("cpu-{cpu:02}.seg"))
    }

    /// The true payload of `frame`, verifying length and CRC, salvaging
    /// through quarantine-and-rebuild on any mismatch.
    ///
    /// # Panics
    ///
    /// Panics (with the underlying [`SpillError`] in the message) only
    /// when a frame is unreadable *and* no rebuilder can produce bytes
    /// matching the recorded CRC — an unrecoverable internal error, which
    /// the per-cell supervision layer catches and reports as a typed cell
    /// failure rather than a process abort.
    pub fn frame_bytes(&self, frame: &FrameRef) -> Arc<Vec<u8>> {
        self.try_frame_bytes(frame)
            .unwrap_or_else(|msg| panic!("{msg}"))
    }

    /// [`SpillStore::frame_bytes`] answering an unrecoverable frame with
    /// the message it would panic with, for callers that must not panic
    /// (the decode-ahead helper leaves such a chunk to the event loop).
    pub(crate) fn try_frame_bytes(&self, frame: &FrameRef) -> Result<Arc<Vec<u8>>, String> {
        match self.try_read_frame(frame) {
            Ok(bytes) => Ok(Arc::new(bytes)),
            Err(e) => self.salvage(frame, &e),
        }
    }

    fn try_read_frame(&self, frame: &FrameRef) -> Result<Vec<u8>, SpillError> {
        let seg = lock_tolerant(&self.segments[frame.cpu as usize]);
        let name = seg.name.clone();
        let file = match &seg.state {
            SegmentState::Writing { file, .. } | SegmentState::Sealed { file } => file,
            SegmentState::Failed => {
                return Err(SpillError {
                    segment: name,
                    frame: Some(frame.frame),
                    kind: SpillErrorKind::Io("segment failed to seal".into()),
                })
            }
        };
        let mut buf = vec![0u8; frame.len as usize];
        if let Err(e) = file.read_exact_at(&mut buf, frame.offset) {
            if e.kind() == io::ErrorKind::UnexpectedEof {
                let got = file
                    .metadata()
                    .map(|m| m.len().saturating_sub(frame.offset))
                    .unwrap_or(0);
                return Err(SpillError {
                    segment: name,
                    frame: Some(frame.frame),
                    kind: SpillErrorKind::Torn {
                        expected: frame.len,
                        got,
                    },
                });
            }
            return Err(io_err(&name, Some(frame.frame), &e));
        }
        let found = crc32(&buf);
        if found != frame.crc {
            return Err(SpillError {
                segment: name,
                frame: Some(frame.frame),
                kind: SpillErrorKind::Corrupt {
                    expected: frame.crc,
                    found,
                },
            });
        }
        Ok(buf)
    }

    /// Quarantine-and-rebuild: re-derive the chunk from the generator,
    /// verify against the recorded CRC, cache, and log one structured
    /// stderr line. Single-flight: the replay and its decode-ahead helper
    /// may hit the same bad frame at once, and it is still salvaged (and
    /// logged) exactly once. `Err` carries the unrecoverable-frame message.
    fn salvage(&self, frame: &FrameRef, err: &SpillError) -> Result<Arc<Vec<u8>>, String> {
        let key = (frame.cpu, frame.chunk);
        let rb = lock_tolerant(&self.rebuilder);
        if let Some(bytes) = lock_tolerant(&self.salvaged).get(&key) {
            return Ok(bytes.clone());
        }
        let Some(bytes) = rb
            .as_ref()
            .and_then(|f| f(frame.cpu as usize, frame.chunk as usize))
        else {
            return Err(format!(
                "unrecoverable spill frame (no rebuilder or chunk unknown): {err}"
            ));
        };
        if crc32(&bytes) != frame.crc {
            return Err(format!(
                "rebuilder produced bytes not matching the recorded CRC for {err}"
            ));
        }
        eprintln!(
            "warning: class=spill-salvage segment={} frame={} chunk={} msg={:?}",
            err.segment,
            frame.frame,
            frame.chunk,
            format!(
                "{}; chunk quarantined and rebuilt from the generator",
                err.kind_msg()
            )
        );
        self.salvages.fetch_add(1, Ordering::Relaxed);
        let bytes = Arc::new(bytes);
        lock_tolerant(&self.salvaged).insert(key, bytes.clone());
        Ok(bytes)
    }
}

impl SpillError {
    fn kind_msg(&self) -> String {
        match &self.kind {
            SpillErrorKind::Io(m) => format!("io error: {m}"),
            SpillErrorKind::NoSpace => "no space on device".into(),
            SpillErrorKind::Corrupt { expected, found } => {
                format!("payload crc {found:#010x} != {expected:#010x}")
            }
            SpillErrorKind::Torn { expected, got } => {
                format!("short frame ({got} of {expected} bytes)")
            }
            SpillErrorKind::HeaderMismatch { field, found, want } => {
                format!("header {field} is {found}, expected {want}")
            }
        }
    }
}

impl Drop for SpillStore {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.dir);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id() -> StoreIdentity {
        StoreIdentity {
            scale_bits: 1.0f64.to_bits(),
            seed: 42,
            n_cpus: 2,
        }
    }

    /// The bytewise CRC-32 the sliced one must reproduce.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c = CRC_TABLES[0][usize::from((c as u8) ^ b)] ^ (c >> 8);
        }
        !c
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn sliced_crc32_matches_bytewise() {
        use crate::rng::{RngCore, SmallRng};
        let mut rng = SmallRng::seed_from_u64(0xC3C3_2020);
        let buf: Vec<u8> = (0..(1 << 20) + 8).map(|_| rng.next_u64() as u8).collect();
        // Every short length at every alignment: word loop, tail, both.
        for start in 0..8 {
            for len in 0..=64 {
                let b = &buf[start..start + len];
                assert_eq!(crc32(b), crc32_bytewise(b), "start {start} len {len}");
            }
        }
        let mib = &buf[3..3 + (1 << 20)];
        assert_eq!(crc32(mib), crc32_bytewise(mib));
    }

    #[test]
    fn frames_round_trip_and_headers_verify() {
        let store = SpillStore::create("t-roundtrip", id(), 2, None).unwrap();
        let a = store.append_frame(0, 0, b"hello chunk").unwrap();
        let b = store.append_frame(0, 1, b"second").unwrap();
        let c = store.append_frame(1, 0, b"other cpu").unwrap();
        store.seal(0).unwrap();
        store.seal(1).unwrap();
        assert_eq!(&*store.frame_bytes(&a), b"hello chunk");
        assert_eq!(&*store.frame_bytes(&b), b"second");
        assert_eq!(&*store.frame_bytes(&c), b"other cpu");
        let (got, cpu) = read_header(&store.segment_path(1), &id()).unwrap();
        assert_eq!(got, id());
        assert_eq!(cpu, 1);
        // A different identity is rejected field-by-field.
        let other = StoreIdentity { seed: 43, ..id() };
        let err = read_header(&store.segment_path(1), &other).unwrap_err();
        assert!(matches!(
            err.kind,
            SpillErrorKind::HeaderMismatch { field: "seed", .. }
        ));
    }

    #[test]
    fn corrupt_frame_is_quarantined_and_rebuilt() {
        let store = SpillStore::create("t-salvage", id(), 1, None).unwrap();
        let payload = b"the true bytes".to_vec();
        let fr = store.append_frame(0, 3, &payload).unwrap();
        store.seal(0).unwrap();
        // Flip a byte on disk behind the store's back.
        {
            let f = OpenOptions::new()
                .write(true)
                .open(store.segment_path(0))
                .unwrap();
            f.write_all_at(b"X", fr.offset).unwrap();
        }
        let p = payload.clone();
        store.set_rebuilder(Box::new(move |cpu, chunk| {
            assert_eq!((cpu, chunk), (0, 3));
            Some(p.clone())
        }));
        assert_eq!(&*store.frame_bytes(&fr), &payload);
        assert_eq!(store.salvage_count(), 1);
        // Second read hits the quarantine cache, no second salvage.
        assert_eq!(&*store.frame_bytes(&fr), &payload);
        assert_eq!(store.salvage_count(), 1);
    }

    #[test]
    fn torn_tail_is_detected() {
        let store = SpillStore::create("t-torn", id(), 1, None).unwrap();
        let fr = store.append_frame(0, 0, b"will be truncated").unwrap();
        store.seal(0).unwrap();
        let f = OpenOptions::new()
            .write(true)
            .open(store.segment_path(0))
            .unwrap();
        f.set_len(fr.offset + 4).unwrap();
        let err = store.try_read_frame(&fr).unwrap_err();
        assert!(matches!(err.kind, SpillErrorKind::Torn { .. }), "{err}");
    }

    #[test]
    fn injected_enospc_is_sticky() {
        // Class pinned to enospc: the first targeted frame flips the
        // store into no-space; every later append fails fast.
        let plan = IoFaultPlan::parse("7:enospc").unwrap();
        let store = SpillStore::create("t-enospc", id(), 1, Some(plan)).unwrap();
        let mut first_err = None;
        for k in 0..64 {
            if let Err(e) = store.append_frame(0, k, b"payload") {
                first_err = Some(e);
                break;
            }
        }
        let e = first_err.expect("plan 7:enospc never fired in 64 frames");
        assert_eq!(e.kind, SpillErrorKind::NoSpace);
        let e2 = store.append_frame(0, 999, b"more").unwrap_err();
        assert_eq!(e2.kind, SpillErrorKind::NoSpace);
    }

    #[test]
    fn injected_short_write_and_bit_flip_salvage() {
        for class in ["short-write", "bit-flip"] {
            let plan = IoFaultPlan::parse(&format!("11:{class}")).unwrap();
            let store = SpillStore::create("t-inject", id(), 1, Some(plan)).unwrap();
            let chunks: Vec<Vec<u8>> = (0..64u32)
                .map(|k| format!("chunk payload number {k}").into_bytes())
                .collect();
            let mut frames = Vec::new();
            for (k, c) in chunks.iter().enumerate() {
                frames.push(store.append_frame(0, k, c).unwrap());
            }
            store.seal(0).unwrap();
            let hit: Vec<usize> = frames
                .iter()
                .enumerate()
                .filter(|(_, f)| store.try_read_frame(f).is_err())
                .map(|(k, _)| k)
                .collect();
            assert!(!hit.is_empty(), "{class}: no frame was corrupted");
            let cs = chunks.clone();
            store.set_rebuilder(Box::new(move |_cpu, chunk| Some(cs[chunk].clone())));
            for (k, f) in frames.iter().enumerate() {
                assert_eq!(&*store.frame_bytes(f), &chunks[k], "{class}: frame {k}");
            }
            assert_eq!(store.salvage_count(), hit.len() as u64, "{class}");
        }
    }

    #[test]
    fn fault_plan_parses_and_is_deterministic() {
        assert_eq!(
            IoFaultPlan::parse("5").unwrap(),
            IoFaultPlan {
                seed: 5,
                class: None
            }
        );
        assert_eq!(
            IoFaultPlan::parse("5:bit-flip").unwrap().class,
            Some(IoFaultClass::BitFlip)
        );
        assert!(IoFaultPlan::parse("x").is_err());
        assert!(IoFaultPlan::parse("5:meteor").is_err());
        let p = IoFaultPlan {
            seed: 9,
            class: None,
        };
        let fired: Vec<_> = (0..100).map(|f| p.fires(0, f)).collect();
        assert_eq!(fired, (0..100).map(|f| p.fires(0, f)).collect::<Vec<_>>());
        assert!(fired.iter().any(Option::is_some));
        assert!(fired.iter().any(Option::is_none));
    }

    #[test]
    fn budget_governs_spill_decisions() {
        let b = MemBudget::new_mb(1); // 1 MB budget, 512 KB spill threshold
        assert!(!b.wants_spill(1024));
        b.charge_inline(512 * 1024);
        assert!(b.wants_spill(1024));
        assert!(!b.exhausted(), "not degraded yet");
        b.note_degraded();
        assert!(!b.exhausted(), "resident still under the full budget");
        b.charge_inline(600 * 1024);
        assert!(b.exhausted());
        b.release(600 * 1024);
        assert!(!b.exhausted());
        b.note_spilled(1000, 2_000_000);
        assert_eq!(b.spilled_bytes(), 1000);
        assert!((b.spill_ms() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn store_drop_removes_its_directory() {
        let dir;
        {
            let store = SpillStore::create("t-drop", id(), 1, None).unwrap();
            store.append_frame(0, 0, b"x").unwrap();
            dir = store.dir().to_path_buf();
            assert!(dir.exists());
        }
        assert!(!dir.exists());
    }
}
