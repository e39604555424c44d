//! Machine configuration (the paper's §2.4 `Base` architecture and its
//! variants).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A shared flag for cooperative cancellation of a running replay.
///
/// A replay is a pure function of its trace and configuration and can run
/// for a long time; a supervisor that wants a *bounded-latency* kill path
/// (a deadline, a disconnected client, a draining daemon) hands the machine
/// a token and later calls [`CancelToken::cancel`]. [`crate::Machine::run`]
/// polls the flag once every [`crate::CANCEL_POLL_STRIDE`] events — a fixed
/// stride independent of the event mix — and returns
/// [`crate::SimErrorKind::Cancelled`] instead of finishing, leaving no
/// partial statistics behind.
///
/// The default token is inert: it can never be cancelled and costs nothing
/// to poll, so configurations built by [`MachineConfig::base`] behave
/// exactly as before.
///
/// # Examples
///
/// ```
/// use oscache_memsys::CancelToken;
///
/// let inert = CancelToken::default();
/// assert!(!inert.can_cancel());
/// assert!(!inert.is_cancelled());
///
/// let live = CancelToken::new();
/// assert!(live.can_cancel());
/// let observer = live.clone(); // same underlying flag
/// live.cancel();
/// assert!(observer.is_cancelled());
/// ```
#[derive(Clone, Default)]
pub struct CancelToken(Option<CancelInner>);

#[derive(Clone)]
enum CancelInner {
    /// Ordinary token: an externally-settable flag.
    Flag(Arc<AtomicBool>),
    /// Deterministic test token: trips on the n-th poll. Because both the
    /// generic and the specialized replay loops poll on the same
    /// fixed-stride schedule (see [`crate::CANCEL_POLL_STRIDE`]), two
    /// machines given fresh countdown tokens with the same count cancel at
    /// the *same event index* — the property `tests/specialize_matrix.rs`
    /// asserts.
    Countdown(Arc<AtomicU64>),
    /// A child of another token ([`CancelToken::child_until`]).
    Child(Arc<ChildToken>),
}

/// A token with its own flag that also trips when its parent does or
/// when its deadline passes.
struct ChildToken {
    flag: AtomicBool,
    parent: CancelToken,
    deadline: Instant,
}

impl CancelToken {
    /// A live token that starts un-cancelled.
    pub fn new() -> Self {
        CancelToken(Some(CancelInner::Flag(Arc::new(AtomicBool::new(false)))))
    }

    /// An inert token that can never be cancelled (the default).
    pub fn none() -> Self {
        CancelToken(None)
    }

    /// A deterministic token that trips on its `polls`-th
    /// [`CancelToken::is_cancelled`] call (counted across clones) and stays
    /// tripped. `countdown(1)` trips on the very first poll; `countdown(0)`
    /// behaves like `countdown(1)`. Built for reproducible
    /// cancellation-path tests; see [`crate::CANCEL_POLL_STRIDE`].
    pub fn countdown(polls: u64) -> Self {
        CancelToken(Some(CancelInner::Countdown(Arc::new(AtomicU64::new(
            polls,
        )))))
    }

    /// A live token that trips when `self` trips or once `deadline` has
    /// passed, whichever comes first. Cancelling the child leaves `self`
    /// live; a child of an inert token trips only by its deadline (or
    /// its own [`CancelToken::cancel`]). This is how a supervisor gives
    /// one attempt its own kill deadline without touching the token its
    /// siblings share.
    ///
    /// ```
    /// use oscache_memsys::CancelToken;
    /// use std::time::{Duration, Instant};
    ///
    /// let request = CancelToken::new();
    /// let attempt = request.child_until(Instant::now() + Duration::from_secs(60));
    /// assert!(!attempt.is_cancelled());
    /// attempt.cancel(); // kills this attempt only
    /// assert!(attempt.is_cancelled() && !request.is_cancelled());
    ///
    /// let late = request.child_until(Instant::now());
    /// assert!(late.is_cancelled()); // its deadline has passed
    /// ```
    pub fn child_until(&self, deadline: Instant) -> Self {
        CancelToken(Some(CancelInner::Child(Arc::new(ChildToken {
            flag: AtomicBool::new(false),
            parent: self.clone(),
            deadline,
        }))))
    }

    /// True when this token is live (was built by [`CancelToken::new`],
    /// [`CancelToken::countdown`] or [`CancelToken::child_until`]).
    pub fn can_cancel(&self) -> bool {
        self.0.is_some()
    }

    /// Requests cancellation. Idempotent; a no-op on an inert token.
    pub fn cancel(&self) {
        match &self.0 {
            Some(CancelInner::Flag(flag)) => flag.store(true, Ordering::Release),
            Some(CancelInner::Countdown(left)) => left.store(0, Ordering::Release),
            Some(CancelInner::Child(c)) => c.flag.store(true, Ordering::Release),
            None => {}
        }
    }

    /// True once [`CancelToken::cancel`] has been called on any clone of a
    /// live token, once a countdown token's polls are exhausted, or once a
    /// child token's parent has tripped or its deadline has passed. Inert
    /// tokens always return false.
    #[inline]
    pub fn is_cancelled(&self) -> bool {
        match &self.0 {
            Some(CancelInner::Flag(flag)) => flag.load(Ordering::Acquire),
            Some(CancelInner::Countdown(left)) => {
                // Consume one poll; tripped once the counter hits zero.
                left.fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| n.checked_sub(1))
                    .map_or(true, |prev| prev <= 1)
            }
            Some(CancelInner::Child(c)) => c.is_cancelled(),
            None => false,
        }
    }
}

impl ChildToken {
    // Out of line: keeps the parent recursion and the clock read out of
    // the replay loops that inline `CancelToken::is_cancelled`.
    #[inline(never)]
    fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
            || self.parent.is_cancelled()
            || Instant::now() >= self.deadline
    }
}

// Manual impl: a token prints its capability, not its pointer, so
// `Debug`-derived fingerprints of structures embedding a config stay
// stable across runs.
impl std::fmt::Debug for CancelToken {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.0 {
            Some(_) => f.write_str("CancelToken(live)"),
            None => f.write_str("CancelToken(inert)"),
        }
    }
}

/// A set of page numbers stored as a sorted vector.
///
/// [`MachineConfig::update_pages`] is membership-tested on *every*
/// buffered write the machine replays, so the representation matters: a
/// sorted `Vec<u32>` probed by binary search does no hashing and no
/// allocation on that path, and — unlike a `HashSet` — has a
/// deterministic iteration order for free.
///
/// # Examples
///
/// ```
/// use oscache_memsys::PageSet;
///
/// let mut pages = PageSet::new();
/// assert!(pages.insert(7));
/// assert!(pages.insert(3));
/// assert!(!pages.insert(7)); // already present
/// assert!(pages.contains(3) && pages.contains(7));
/// assert!(!pages.contains(4));
/// assert_eq!(pages.iter().collect::<Vec<_>>(), vec![3, 7]);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PageSet {
    pages: Vec<u32>,
}

impl PageSet {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `page`; returns whether it was newly inserted.
    pub fn insert(&mut self, page: u32) -> bool {
        match self.pages.binary_search(&page) {
            Ok(_) => false,
            Err(pos) => {
                self.pages.insert(pos, page);
                true
            }
        }
    }

    /// Membership test (binary search; no hashing).
    #[inline]
    pub fn contains(&self, page: u32) -> bool {
        self.pages.binary_search(&page).is_ok()
    }

    /// Number of pages in the set.
    pub fn len(&self) -> usize {
        self.pages.len()
    }

    /// True when the set is empty.
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }

    /// The pages in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.pages.iter().copied()
    }
}

impl FromIterator<u32> for PageSet {
    fn from_iter<I: IntoIterator<Item = u32>>(iter: I) -> Self {
        let mut pages: Vec<u32> = iter.into_iter().collect();
        pages.sort_unstable();
        pages.dedup();
        PageSet { pages }
    }
}

/// Geometry of one cache (direct-mapped unless `ways > 1`).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CacheGeom {
    /// Total capacity in bytes (power of two).
    pub size: u32,
    /// Line size in bytes (power of two).
    pub line: u32,
    /// Associativity (power of two; 1 = direct-mapped, as in §2.4).
    pub ways: u32,
}

impl CacheGeom {
    /// Creates a direct-mapped geometry (the paper's configuration).
    ///
    /// # Panics
    ///
    /// Panics unless `size` and `line` are powers of two with
    /// `line <= size`.
    pub fn new(size: u32, line: u32) -> Self {
        Self::new_assoc(size, line, 1)
    }

    /// Creates a set-associative geometry.
    ///
    /// # Panics
    ///
    /// Panics unless `size`, `line`, and `ways` are powers of two with
    /// `line * ways <= size`.
    pub fn new_assoc(size: u32, line: u32, ways: u32) -> Self {
        assert!(size.is_power_of_two(), "cache size must be a power of two");
        assert!(line.is_power_of_two(), "line size must be a power of two");
        assert!(ways.is_power_of_two(), "ways must be a power of two");
        assert!(line <= size, "line larger than cache");
        assert!(line * ways <= size, "one set larger than the cache");
        CacheGeom { size, line, ways }
    }

    /// Number of line frames.
    #[inline]
    pub fn n_lines(&self) -> u32 {
        self.size / self.line
    }

    /// Number of sets.
    #[inline]
    pub fn n_sets(&self) -> u32 {
        self.n_lines() / self.ways
    }

    /// Set index a line address maps to.
    ///
    /// All geometry dimensions are powers of two (enforced by the
    /// constructors), so the division and modulus reduce to a shift and a
    /// mask — this runs on the simulator's hottest path (every tag lookup).
    #[inline]
    pub fn set_of(&self, line_addr: u32) -> u32 {
        debug_assert!(self.line.is_power_of_two() && self.n_sets().is_power_of_two());
        (line_addr >> self.line.trailing_zeros()) & (self.n_sets() - 1)
    }
}

/// How block operations (§4) are carried out by the memory system.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum BlockOpScheme {
    /// `Base`: ordinary cached loads and stores.
    #[default]
    Cached,
    /// `Blk_Pref`: software prefetching of the source block into the caches
    /// with software pipelining and loop unrolling.
    Pref,
    /// `Blk_Bypass`: loads and stores bypass both caches through line-wide
    /// registers; loads are blocking.
    Bypass,
    /// `Blk_ByPref`: bypass plus an 8-line prefetch buffer for the source;
    /// destination writes are cached.
    ByPref,
    /// `Blk_Dma`: a smart L2-cache controller performs the transfer on the
    /// bus in a DMA-like fashion while the processor stalls; caches are
    /// bypassed and kept coherent by snooping.
    Dma,
}

impl BlockOpScheme {
    /// The label used in the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            BlockOpScheme::Cached => "Base",
            BlockOpScheme::Pref => "Blk_Pref",
            BlockOpScheme::Bypass => "Blk_Bypass",
            BlockOpScheme::ByPref => "Blk_ByPref",
            BlockOpScheme::Dma => "Blk_Dma",
        }
    }
}

/// Fixed latencies and bandwidths (in CPU cycles at 200 MHz) of §2.4.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Timing {
    /// Word read from the primary cache.
    pub l1_hit: u64,
    /// Word read from the secondary cache.
    pub l2_hit: u64,
    /// Word read from memory (includes bus transfer), without contention.
    pub mem: u64,
    /// CPU cycles per bus cycle (200 MHz CPU / 40 MHz bus = 5).
    pub cpu_per_bus_cycle: u64,
    /// Bus occupancy of one secondary-cache line transfer (20 CPU cycles).
    pub line_transfer: u64,
    /// Bus occupancy of an invalidation/upgrade signal.
    pub inval_signal: u64,
    /// Bus occupancy of one update-protocol word broadcast.
    pub update_word: u64,
    /// L2 write-port service time for one buffered write that hits the L2
    /// in an owned state (no bus needed).
    pub l2_write: u64,
    /// DMA startup cost once the bus is granted (19 cycles, §4.2).
    pub dma_startup: u64,
    /// DMA bus cycles per 8 transferred bytes (2 bus cycles, §4.2).
    pub dma_bus_cycles_per_8b: u64,
    /// Extra DMA bus cycles when a snooping cache must be read or updated.
    pub dma_snoop_penalty_bus_cycles: u64,
}

impl Default for Timing {
    fn default() -> Self {
        Timing {
            l1_hit: 1,
            l2_hit: 12,
            mem: 51,
            cpu_per_bus_cycle: 5,
            line_transfer: 20,
            inval_signal: 5,
            update_word: 5,
            l2_write: 2,
            dma_startup: 19,
            dma_bus_cycles_per_8b: 2,
            dma_snoop_penalty_bus_cycles: 2,
        }
    }
}

/// How much runtime invariant auditing the machine performs.
///
/// The auditor re-derives the coherence and buffering invariants the model
/// is supposed to maintain (single writer, at most one owner, L1 ⊆ L2
/// inclusion, FIFO write-buffer drain, monotone clocks) and reports any
/// violation as a typed [`crate::SimError`] instead of silently producing
/// wrong statistics. Ordered: each level includes everything below it.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub enum AuditLevel {
    /// No auditing (the default; zero overhead).
    #[default]
    Off,
    /// One full invariant sweep after the last event has replayed.
    Final,
    /// Per-event checks on the lines each event touches, plus the final
    /// sweep. Slower; meant for tests and fault-injection runs.
    Strict,
}

/// Complete machine configuration.
///
/// [`MachineConfig::base`] reproduces the paper's simulated `Base` machine:
/// 4 × 200 MHz processors, 16-KB L1I and 32-KB L1D (16-B lines,
/// direct-mapped, write-through), 256-KB unified lockup-free L2 (32-B lines,
/// write-back), a 4-deep word write buffer between L1 and L2, an 8-deep
/// 32-B-wide write buffer between L2 and the bus, and an 8-byte 40-MHz
/// split-transaction bus running the Illinois protocol under release
/// consistency.
#[derive(Clone, Debug)]
pub struct MachineConfig {
    /// Number of processors.
    pub n_cpus: usize,
    /// L1 instruction cache geometry.
    pub l1i: CacheGeom,
    /// L1 data cache geometry.
    pub l1d: CacheGeom,
    /// Unified L2 geometry.
    pub l2: CacheGeom,
    /// Depth of the word-wide L1→L2 write buffer.
    pub wb1_depth: usize,
    /// Depth of the line-wide L2→bus write buffer.
    pub wb2_depth: usize,
    /// Latency/bandwidth parameters.
    pub timing: Timing,
    /// Block-operation scheme.
    pub block_scheme: BlockOpScheme,
    /// Pages whose lines are kept coherent with the Firefly update protocol
    /// instead of Illinois invalidations (§5.2's per-page TLB selection).
    pub update_pages: PageSet,
    /// Maximum outstanding prefetches (lockup-free L2 MSHRs).
    pub max_prefetches: usize,
    /// Source prefetch buffer capacity in L1 lines for `Blk_ByPref`.
    pub prefetch_buf_lines: usize,
    /// Prefetch look-ahead distance in lines for `Blk_Pref`/`Blk_ByPref`.
    pub prefetch_distance: u32,
    /// Entries in a fully-associative victim cache beside the L1D
    /// (0 = none, the paper's machine). A conflict-miss mitigation in the
    /// spirit of the §7 discussion; see the `ablate_victim_cache` bench.
    pub victim_lines: usize,
    /// Runtime invariant auditing level.
    pub audit: AuditLevel,
    /// Cooperative-cancellation token polled by the replay loop. Inert by
    /// default; see [`CancelToken`].
    pub cancel: CancelToken,
}

impl MachineConfig {
    /// The paper's `Base` configuration (§2.4).
    ///
    /// # Examples
    ///
    /// ```
    /// use oscache_memsys::{BlockOpScheme, MachineConfig};
    ///
    /// let cfg = MachineConfig::base().with_block_scheme(BlockOpScheme::Dma);
    /// assert_eq!(cfg.n_cpus, 4);
    /// assert_eq!(cfg.l1d.size, 32 * 1024);
    /// assert_eq!(cfg.block_scheme, BlockOpScheme::Dma);
    /// ```
    pub fn base() -> Self {
        MachineConfig {
            n_cpus: 4,
            l1i: CacheGeom::new(16 * 1024, 16),
            l1d: CacheGeom::new(32 * 1024, 16),
            l2: CacheGeom::new(256 * 1024, 32),
            wb1_depth: 4,
            wb2_depth: 8,
            timing: Timing::default(),
            block_scheme: BlockOpScheme::Cached,
            update_pages: PageSet::new(),
            max_prefetches: 8,
            prefetch_buf_lines: 8,
            prefetch_distance: 4,
            victim_lines: 0,
            audit: AuditLevel::Off,
            cancel: CancelToken::none(),
        }
    }

    /// Returns a copy with a different auditing level.
    pub fn with_audit(mut self, level: AuditLevel) -> Self {
        self.audit = level;
        self
    }

    /// Returns a copy with a different block-operation scheme.
    pub fn with_block_scheme(mut self, scheme: BlockOpScheme) -> Self {
        self.block_scheme = scheme;
        self
    }

    /// Recomputes line-size-dependent timing parameters. Bus occupancy
    /// and memory latency scale with the L2 line: the 8-byte, 40-MHz bus
    /// moves 8 bytes per bus cycle (5 CPU cycles), so a 32-B line occupies
    /// it for 20 CPU cycles (§2.4) and a 64-B line for 40.
    pub fn rescale_bus(&mut self) {
        let transfer = u64::from(self.l2.line / 8) * self.timing.cpu_per_bus_cycle;
        let base = Timing::default();
        self.timing.line_transfer = transfer.max(base.cpu_per_bus_cycle);
        // The 51-cycle memory latency includes one 32-B line transfer;
        // longer lines take correspondingly longer.
        self.timing.mem = base.mem + self.timing.line_transfer.saturating_sub(base.line_transfer);
    }

    /// Validates cross-parameter invariants.
    ///
    /// Call [`MachineConfig::rescale_bus`] after changing `l2.line`
    /// directly (the `with_*` helpers do it for you).
    ///
    /// # Panics
    ///
    /// Panics if the L2 line is smaller than the L1 lines (inclusion
    /// propagation requires L2 lines to cover whole L1 lines) or if any
    /// depth is zero.
    pub fn validate(&self) {
        assert!(self.n_cpus >= 1, "need at least one CPU");
        assert!(
            self.l2.line >= self.l1d.line && self.l2.line >= self.l1i.line,
            "L2 line must cover L1 lines"
        );
        assert!(
            self.wb1_depth > 0 && self.wb2_depth > 0,
            "buffers need depth"
        );
        assert!(self.max_prefetches > 0, "need at least one MSHR");
    }
}

impl Default for MachineConfig {
    fn default() -> Self {
        Self::base()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn child_trips_once_its_deadline_passes() {
        let child = CancelToken::new().child_until(Instant::now() + Duration::from_millis(20));
        assert!(child.can_cancel());
        assert!(!child.is_cancelled());
        std::thread::sleep(Duration::from_millis(30));
        assert!(child.is_cancelled());
    }

    #[test]
    fn cancelling_the_parent_trips_the_child() {
        let parent = CancelToken::new();
        let child = parent.child_until(Instant::now() + Duration::from_secs(3600));
        assert!(!child.is_cancelled());
        parent.cancel();
        assert!(child.is_cancelled());
    }

    #[test]
    fn cancelling_the_child_leaves_the_parent_live() {
        let parent = CancelToken::new();
        let sibling = parent.child_until(Instant::now() + Duration::from_secs(3600));
        let child = parent.child_until(Instant::now() + Duration::from_secs(3600));
        child.cancel();
        assert!(child.is_cancelled());
        assert!(!parent.is_cancelled());
        assert!(!sibling.is_cancelled());
    }

    #[test]
    fn a_child_of_an_inert_token_is_live_and_deadline_only() {
        let inert = CancelToken::none();
        let child = inert.child_until(Instant::now() + Duration::from_millis(20));
        assert!(child.can_cancel() && !inert.can_cancel());
        assert!(!child.is_cancelled());
        inert.cancel();
        assert!(!child.is_cancelled(), "an inert parent never trips");
        std::thread::sleep(Duration::from_millis(30));
        assert!(child.is_cancelled());
    }

    #[test]
    fn base_matches_paper_parameters() {
        let c = MachineConfig::base();
        c.validate();
        assert_eq!(c.n_cpus, 4);
        assert_eq!(c.l1i.size, 16 * 1024);
        assert_eq!(c.l1d.size, 32 * 1024);
        assert_eq!(c.l1d.line, 16);
        assert_eq!(c.l2.size, 256 * 1024);
        assert_eq!(c.l2.line, 32);
        assert_eq!(c.wb1_depth, 4);
        assert_eq!(c.wb2_depth, 8);
        assert_eq!(c.timing.l1_hit, 1);
        assert_eq!(c.timing.l2_hit, 12);
        assert_eq!(c.timing.mem, 51);
        assert_eq!(c.timing.line_transfer, 20);
    }

    #[test]
    fn set_mapping_is_modular() {
        let g = CacheGeom::new(1024, 16);
        assert_eq!(g.n_lines(), 64);
        assert_eq!(g.n_sets(), 64);
        assert_eq!(g.set_of(0), 0);
        assert_eq!(g.set_of(16), 1);
        assert_eq!(g.set_of(1024), 0);
        assert_eq!(g.set_of(1040), 1);
    }

    #[test]
    fn associative_geometry_has_fewer_sets() {
        let g = CacheGeom::new_assoc(1024, 16, 4);
        assert_eq!(g.n_lines(), 64);
        assert_eq!(g.n_sets(), 16);
        assert_eq!(g.ways, 4);
        assert_eq!(g.set_of(0), g.set_of(16 * 16));
    }

    #[test]
    #[should_panic(expected = "one set larger")]
    fn oversized_set_panics() {
        CacheGeom::new_assoc(64, 16, 8);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_pow2_size_panics() {
        CacheGeom::new(1000, 16);
    }

    #[test]
    #[should_panic(expected = "L2 line must cover")]
    fn l2_line_smaller_than_l1_panics() {
        let mut c = MachineConfig::base();
        c.l2 = CacheGeom::new(256 * 1024, 8);
        c.validate();
    }

    #[test]
    fn geometry_sweeps() {
        let mut c = MachineConfig::base();
        c.l1d = CacheGeom::new(64 * 1024, c.l1d.line);
        assert_eq!(c.l1d.line, 16);
        c.validate();
        c.l1d = CacheGeom::new(c.l1d.size, 64);
        c.l1i = CacheGeom::new(c.l1i.size, 64);
        c.l2 = CacheGeom::new(c.l2.size, 64);
        c.rescale_bus();
        assert_eq!(
            c.timing.line_transfer, 40,
            "a 64-B line holds the bus 40 cycles"
        );
        c.validate();
    }

    #[test]
    fn audit_levels_are_ordered() {
        assert!(AuditLevel::Off < AuditLevel::Final);
        assert!(AuditLevel::Final < AuditLevel::Strict);
        assert_eq!(AuditLevel::default(), AuditLevel::Off);
        let c = MachineConfig::base().with_audit(AuditLevel::Strict);
        assert_eq!(c.audit, AuditLevel::Strict);
        c.validate();
    }

    #[test]
    fn scheme_labels_match_paper() {
        assert_eq!(BlockOpScheme::Cached.label(), "Base");
        assert_eq!(BlockOpScheme::Dma.label(), "Blk_Dma");
        assert_eq!(BlockOpScheme::default(), BlockOpScheme::Cached);
    }
}
