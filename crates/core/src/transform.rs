//! Software-optimization passes applied to a trace before simulation: the
//! §4.2.1 deferred copy, the §5.1 privatization and relocation, the §5.2
//! update-page placement, the §6 hot-spot prefetch insertion, and the §7
//! page coloring.
//!
//! Each pass rewrites the reference stream exactly the way recompiling the
//! kernel with the optimization would: privatized counters become per-CPU
//! copies in distinct cache lines (aggregate uses read all copies),
//! relocated variables move to fresh line-aligned homes, update-mapped
//! variables are gathered into one page, and prefetch instructions appear
//! ahead of the loads they cover.
//!
//! [`TransformPipeline`] is the one trace rewriter: it applies any
//! combination of deferral, coloring, privatization, relocation and escape
//! instrumentation in one streaming walk over each chunked stream, in that
//! fixed composition order. Hot-spot prefetching runs after them as a
//! [`HotspotPlan`] the replay merges into its decode windows, so no
//! prefetch-carrying trace is ever encoded. The pass-by-pass reference
//! rewrites that the tests check the pipeline against live in the
//! test-only `oscache-oracle` crate.

use crate::analysis::UpdateSet;
use crate::deferred::DeferralSummary;
use oscache_trace::{
    Addr, ChunkedStreamBuilder, ChunkedTrace, DataClass, Event, PlanEntry, TraceMeta, WORD_SIZE,
};
use std::collections::{HashMap, HashSet};

/// Base of the per-CPU private-counter area.
pub const PRIVATE_BASE: u32 = 0x0300_0000;
/// Base of the relocation area for falsely-shared variables.
pub const RELOC_BASE: u32 = 0x0304_0000;
/// Base of the update-mapped page (§5.2: one page holds the ~384 bytes).
pub const UPDATE_PAGE_BASE: u32 = 0x0308_0000;
/// Line-aligned slot size used when separating variables. 64 bytes covers
/// every line size the paper sweeps (Figure 7).
pub const SLOT: u32 = 64;

/// Stride between a variable's per-CPU private copies.
const PRIVATE_CPU_STRIDE: u32 = SLOT;
/// Stride between different privatized variables.
const PRIVATE_VAR_STRIDE: u32 = SLOT * 8;

/// Address of CPU `cpu`'s private copy of target `idx`.
pub fn private_copy_addr(idx: usize, cpu: usize) -> Addr {
    Addr(PRIVATE_BASE + idx as u32 * PRIVATE_VAR_STRIDE + cpu as u32 * PRIVATE_CPU_STRIDE)
}

/// An address remapping built from byte ranges.
///
/// Ranges are appended unsorted; [`RelocationMap::finish`] sorts them once
/// and checks for overlaps, enabling binary-search lookups. A map that has
/// not been finished still answers [`RelocationMap::lookup`] correctly via
/// a linear containment scan, so plans may interleave `add` and `lookup`
/// while under construction — but callers should `finish()` a plan before
/// rewriting a whole trace through it.
///
/// # Examples
///
/// ```
/// use oscache_core::transform::RelocationMap;
/// use oscache_trace::Addr;
///
/// let mut m = RelocationMap::new();
/// m.add(Addr(0x100), 8, Addr(0x9000));
/// assert_eq!(m.lookup(Addr(0x104)), Some(Addr(0x9004)));
/// m.finish();
/// assert_eq!(m.lookup(Addr(0x104)), Some(Addr(0x9004)));
/// assert_eq!(m.lookup(Addr(0x108)), None);
/// ```
#[derive(Clone, Debug, Default)]
pub struct RelocationMap {
    /// `(old_start, len, new_start)` triples; sorted by `old_start` once
    /// `finish()` has run.
    ranges: Vec<(u32, u32, u32)>,
    /// True while ranges added since the last `finish()` remain unsorted.
    dirty: bool,
    /// `[lo, hi)` spans every range once `finish()` has run (empty for an
    /// empty map): lookups outside it skip the search.
    lo: u32,
    hi: u64,
}

impl RelocationMap {
    /// Creates an empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a range mapping. O(1): sorting and the overlap check are
    /// deferred to [`RelocationMap::finish`].
    pub fn add(&mut self, old: Addr, len: u32, new: Addr) {
        self.ranges.push((old.0, len, new.0));
        self.dirty = true;
    }

    /// Sorts the ranges and checks them for overlaps, switching lookups to
    /// binary search. Idempotent.
    ///
    /// # Panics
    ///
    /// Panics if any two added ranges overlap.
    pub fn finish(&mut self) {
        if !self.dirty {
            return;
        }
        self.ranges.sort_unstable();
        for w in self.ranges.windows(2) {
            assert!(
                w[0].0 + w[0].1 <= w[1].0,
                "overlapping relocation ranges: {w:?}"
            );
        }
        if let (Some(first), Some(&(start, len, _))) = (self.ranges.first(), self.ranges.last()) {
            self.lo = first.0;
            self.hi = u64::from(start) + u64::from(len);
        }
        self.dirty = false;
    }

    /// Remaps one address, if covered. After [`RelocationMap::finish`], a
    /// range check against the span of all ranges, then binary search; a
    /// linear scan (first matching range wins) on a map still under
    /// construction.
    pub fn lookup(&self, a: Addr) -> Option<Addr> {
        if self.dirty {
            return self
                .ranges
                .iter()
                .find(|&&(s, len, _)| a.0 >= s && a.0 - s < len)
                .map(|&(s, _, new)| Addr(new + (a.0 - s)));
        }
        if a.0 < self.lo || u64::from(a.0) >= self.hi {
            return None;
        }
        let i = match self.ranges.binary_search_by(|&(s, _, _)| s.cmp(&a.0)) {
            Ok(i) => i,
            Err(0) => return None,
            Err(i) => i - 1,
        };
        let (start, len, new) = self.ranges[i];
        (a.0 - start < len).then(|| Addr(new + (a.0 - start)))
    }

    /// Number of ranges.
    pub fn len(&self) -> usize {
        self.ranges.len()
    }

    /// True when no ranges are mapped.
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }
}

/// Builds the §5.1 relocation plan: every variable in a false-sharing
/// group moves to its own [`SLOT`]-aligned home. The plan reads only the
/// trace metadata, never the event streams.
pub fn false_sharing_plan(meta: &TraceMeta, skip: &HashSet<u32>) -> RelocationMap {
    let mut map = RelocationMap::new();
    let mut next = RELOC_BASE;
    for v in &meta.vars {
        if v.false_shared_group.is_none() || skip.contains(&v.addr.0) {
            continue;
        }
        map.add(v.addr, v.size, Addr(next));
        next += v.size.div_ceil(SLOT).max(1) * SLOT;
    }
    map.finish();
    map
}

/// Builds the §5.2 update-page plan: each update-set member gets its own
/// line in the update page. Returns the plan and the update-mapped pages.
pub fn update_page_plan(meta: &TraceMeta, set: &UpdateSet) -> (RelocationMap, HashSet<u32>) {
    let mut map = RelocationMap::new();
    let mut next = UPDATE_PAGE_BASE;
    let mut pages = HashSet::new();
    for w in set.all_words() {
        // Move the whole containing variable when known, else the word.
        let (start, len) = match meta.var_at(w) {
            Some(v) => (v.addr, v.size),
            None => (Addr(w.0 & !(WORD_SIZE - 1)), WORD_SIZE),
        };
        if map.lookup(start).is_some() {
            continue; // containing variable already placed
        }
        map.add(start, len, Addr(next));
        pages.insert(Addr(next).page());
        next += len.div_ceil(SLOT).max(1) * SLOT;
    }
    map.finish();
    (map, pages)
}

pub use oscache_trace::{HotspotPlan, LOOP_AHEAD};

/// How far back (in events) a sequence prefetch may be hoisted. The paper
/// notes hoisting is limited by operand availability and stops at routine
/// boundaries ("the prefetch should be moved to the callers … we do not
/// do this").
pub const HOIST_LIMIT: usize = 24;

/// The §6 hot-spot stage: loop sites prefetch [`LOOP_AHEAD`] bytes ahead
/// at each access; sequence sites hoist a prefetch of the accessed line up
/// to [`HOIST_LIMIT`] events earlier, never across synchronization, block
/// operations, or mode switches.
///
/// The stage is split in two: this walk records, for *every* site, the
/// prefetches the stage would insert if that site were hot, as one
/// [`HotspotPlan`] over `trace`; a replay then merges one concrete hot
/// set's entries into its decode windows
/// ([`Machine::with_prefetches`](oscache_memsys::Machine::with_prefetches)).
///
/// A profiling caller that tries several cache geometries over one
/// working trace pays the stage's walk once instead of once per distinct
/// hot set. The split is sound because the stage's decisions are
/// per-site-run: `recent_lines` resets whenever the current site changes
/// and is consulted only for reads attributed to that site, and hoist
/// targets are chosen from the input events alone — so whether
/// *other* sites are hot never changes what one site inserts. The tests
/// pin event-for-event equality of the merged stream against the oracle
/// crate's pass-by-pass insertion.
///
/// Events are pulled through each stream's chunk iterator, so the walk
/// runs in O(decode window) memory.
pub fn build_hotspot_plan(trace: &ChunkedTrace) -> HotspotPlan {
    HotspotPlan::new(
        trace
            .streams
            .iter()
            .map(|stream| plan_stream(&trace.meta, stream.iter()))
            .collect(),
    )
}

/// Distinct lines a site run remembers before it may prefetch a line
/// again (FIFO).
const RECENT_LINES: usize = 16;

/// An empty `recent` slot: no read line has the low bits set.
const NO_LINE: u32 = u32::MAX;

/// One stream's plan entries, in generation order: the per-site
/// bookkeeping walk.
///
/// A sequence read hoists its prefetch to the earliest of the previous
/// [`HOIST_LIMIT`] events that no blocking event (synchronization, block
/// operation bracket, mode switch, idle) follows: event
/// `max(i - HOIST_LIMIT, one past the last blocking event)`, kept in O(1).
fn plan_stream(meta: &TraceMeta, events: impl Iterator<Item = Event>) -> Vec<PlanEntry> {
    let mut ins: Vec<PlanEntry> = Vec::new();
    let mut cur_site: Option<u16> = None;
    let mut site_is_loop = false;
    let mut in_blockop = false;
    // The last `RECENT_LINES` distinct lines of the current site run, as a
    // ring overwritten oldest-first.
    let mut recent = [NO_LINE; RECENT_LINES];
    let mut next_slot = 0;
    // One past the last blocking event seen so far.
    let mut after_block = 0u32;
    for (i, e) in events.enumerate() {
        let i = i as u32;
        match e {
            Event::Exec { block } => {
                let bb = meta.code.block(block);
                if cur_site != Some(bb.site.0) {
                    cur_site = Some(bb.site.0);
                    site_is_loop = meta.code.site(bb.site).is_loop;
                    recent = [NO_LINE; RECENT_LINES];
                    next_slot = 0;
                }
            }
            Event::BlockOpBegin { .. } => in_blockop = true,
            Event::BlockOpEnd => in_blockop = false,
            Event::Read { addr, class } if !in_blockop && cur_site.is_some() => {
                let site = cur_site.expect("guarded");
                let line = addr.0 & !15;
                if !recent.contains(&line) {
                    recent[next_slot] = line;
                    next_slot = (next_slot + 1) % RECENT_LINES;
                    let target = if site_is_loop {
                        i
                    } else {
                        i.saturating_sub(HOIST_LIMIT as u32).max(after_block)
                    };
                    ins.push(PlanEntry::new(target, site, addr, class, site_is_loop));
                }
            }
            _ => {}
        }
        if matches!(
            e,
            Event::LockAcquire { .. }
                | Event::LockRelease { .. }
                | Event::Barrier { .. }
                | Event::BlockOpBegin { .. }
                | Event::BlockOpEnd
                | Event::SetMode { .. }
                | Event::Idle { .. }
        ) {
            after_block = i + 1;
        }
    }
    ins
}

/// Base of the recolored-page region (far above every generated region).
pub const COLOR_BASE_PAGE: u32 = 0x8000_0000 / oscache_trace::PAGE_SIZE;

/// Classes whose pages the allocator may place freely (dynamically
/// allocated data: page frames, buffer-cache buffers, user pages).
fn colorable(class: DataClass) -> bool {
    matches!(
        class,
        DataClass::PageFrame | DataClass::BufferCache | DataClass::UserData | DataClass::UserStack
    )
}

/// Collects the pages of every static kernel variable (for the
/// full-update ablation).
pub fn static_pages(meta: &TraceMeta) -> HashSet<u32> {
    meta.vars
        .iter()
        .flat_map(|v| {
            let first = v.addr.page();
            let last = Addr(v.addr.0 + v.size - 1).page();
            first..=last
        })
        .collect()
}

/// Pages a *pure* update protocol would map: every kernel data region
/// plus the transformed areas (§5.2's comparison point — "a pure update
/// protocol" over operating-system variables).
pub fn full_update_pages(meta: &TraceMeta) -> HashSet<u32> {
    let mut pages = static_pages(meta);
    for &(base, len) in &meta.kernel_data {
        let first = base.page();
        let last = Addr(base.0 + len.max(1) - 1).page();
        pages.extend(first..=last);
    }
    for base in [PRIVATE_BASE, RELOC_BASE, UPDATE_PAGE_BASE] {
        for k in 0..8 {
            pages.insert(Addr(base + k * 4096).page());
        }
    }
    pages
}

/// Builds the coloring stage's first-touch page map: pages of colorable
/// classes are assigned round-robin over `l2_size / PAGE_SIZE` colors in
/// the order they first appear, walking streams in CPU order.
fn first_touch_color_map(trace: &ChunkedTrace, l2_size: u32) -> HashMap<u32, u32> {
    let colors = (l2_size / oscache_trace::PAGE_SIZE).max(1);
    let mut map: HashMap<u32, u32> = HashMap::new();
    let mut next_color = 0u32;
    let mut rounds = vec![0u32; colors as usize];
    let mut assign = |map: &mut HashMap<u32, u32>, page: u32| {
        map.entry(page).or_insert_with(|| {
            let color = next_color % colors;
            let round = rounds[color as usize];
            rounds[color as usize] += 1;
            next_color += 1;
            COLOR_BASE_PAGE + round * colors + color
        });
    };
    for stream in &trace.streams {
        for e in stream.iter() {
            match e {
                Event::Read { addr, class }
                | Event::Write { addr, class }
                | Event::Prefetch { addr, class }
                    if colorable(class) =>
                {
                    assign(&mut map, addr.page());
                }
                Event::BlockOpBegin { op } => {
                    if colorable(op.src_class) {
                        assign(&mut map, op.src.page());
                    }
                    if colorable(op.dst_class) {
                        assign(&mut map, op.dst.page());
                    }
                }
                _ => {}
            }
        }
    }
    map
}

/// The privatization stage's targets: word → target index, behind a
/// `[lo, hi)` span check so the common non-target word never hashes.
struct PrivateWords {
    index: HashMap<u32, usize>,
    lo: u32,
    hi: u64,
}

impl PrivateWords {
    #[inline]
    fn get(&self, word: u32) -> Option<usize> {
        if word < self.lo || u64::from(word) >= self.hi {
            return None;
        }
        self.index.get(&word).copied()
    }
}

/// The trace rewriter: any combination of the passes applied in one
/// streaming walk over each chunked stream.
///
/// Stages run per event in the fixed order the old pass chain composed
/// them: **deferral → coloring → privatization → relocation → escape
/// instrumentation**. Deferral works on input event indices and feeds the
/// later stages its output; coloring and relocation are pure per-event
/// address maps; privatization's two-event peephole applies coloring to
/// its lookahead on the fly, so the fused output is event-for-event
/// identical to running the stages as separate whole-trace passes (the
/// oracle crate's pass-by-pass rewrites, pinned by the equivalence tests).
///
/// Plans are still computed separately — the pipeline consumes a deferral
/// summary, a finished [`RelocationMap`] and privatization targets; it
/// only fuses the *rewrites*, which is where the per-pass chain paid a
/// full clone + walk each. Hot-spot prefetch insertion hoists prefetches
/// backwards, so it is not a stage here: it goes through [`HotspotPlan`].
#[derive(Default)]
pub struct TransformPipeline<'a> {
    /// Read-only copies for the deferral stage.
    defer: Option<&'a DeferralSummary>,
    /// First-touch page map for the coloring stage.
    color: Option<HashMap<u32, u32>>,
    /// Word → target-index map for the privatization stage.
    privatize: Option<PrivateWords>,
    /// Finished relocation plan.
    reloc: Option<&'a RelocationMap>,
    /// Insert one escape read after every basic block.
    escapes: bool,
}

impl<'a> TransformPipeline<'a> {
    /// Creates an identity pipeline (no stages).
    pub fn new() -> Self {
        Self::default()
    }

    /// Enables §4.2.1 deferred copying with `summary`, the summary of the
    /// trace passed to [`TransformPipeline::run`].
    pub(crate) fn defer(mut self, summary: &'a DeferralSummary) -> Self {
        self.defer = Some(summary);
        self
    }

    /// Enables careful page placement (cache coloring), the §7 "possible
    /// optimization" the paper attributes to Kessler & Hill and Bershad et
    /// al.: pages of dynamically-allocated data are assigned so that
    /// consecutive allocations spread evenly over the secondary cache's
    /// page colors instead of landing wherever the free list happens to
    /// point.
    ///
    /// Pages are remapped in first-touch order, round-robin over
    /// `l2_size / PAGE_SIZE` colors, preserving page offsets. The paper
    /// notes the scheme's shortcoming — placement is page-grained, "not
    /// optimal for the many small data structures in the kernel" — which
    /// is why it is an extension here, not part of the §4–§6 ladder.
    ///
    /// The first-touch page map is computed here, by streaming `trace` —
    /// pass the same trace to [`TransformPipeline::run`], without a
    /// deferral stage (whose output the map would not have seen; `run`
    /// panics on the pair).
    pub fn coloring(mut self, trace: &ChunkedTrace, l2_size: u32) -> Self {
        self.color = Some(first_touch_color_map(trace, l2_size));
        self
    }

    /// Enables counter privatization for `targets`: updates (a read+write
    /// pair) go to per-CPU private copies and aggregate reads expand into
    /// reads of every copy (§5.1: "instead of reading one counter, [the
    /// pager] reads all the private sub-counters and adds them all up").
    pub fn privatize(mut self, targets: &[Addr]) -> Self {
        let index: HashMap<u32, usize> = targets
            .iter()
            .enumerate()
            .map(|(i, a)| (a.0 & !(WORD_SIZE - 1), i))
            .collect();
        let lo = index.keys().copied().min().unwrap_or(0);
        let hi = index.keys().map(|&w| u64::from(w) + 1).max().unwrap_or(0);
        self.privatize = Some(PrivateWords { index, lo, hi });
        self
    }

    /// Enables relocation of every reference through `map` (callers should
    /// have `finish()`ed it; an unfinished map still works but looks up
    /// linearly).
    pub fn relocate(mut self, map: &'a RelocationMap) -> Self {
        self.reloc = Some(map);
        self
    }

    /// Enables the §2.2 escape instrumentation: one escape load per basic
    /// block, reading an odd address in the code segment so the
    /// performance monitor can reconstruct the instruction stream. The
    /// paper measured that this inflates code size by ~30% yet "does not
    /// significantly affect the metrics"; `repro perturb` reproduces that
    /// perturbation study.
    pub fn escapes(mut self) -> Self {
        self.escapes = true;
        self
    }

    /// The coloring stage: a pure per-event address map.
    fn apply_color(&self, e: Event) -> Event {
        let Some(map) = &self.color else { return e };
        let remap = |a: Addr| -> Addr {
            match map.get(&a.page()) {
                Some(&new_page) => Addr(new_page * oscache_trace::PAGE_SIZE + a.page_offset()),
                None => a,
            }
        };
        match e {
            Event::Read { addr, class } if colorable(class) => Event::Read {
                addr: remap(addr),
                class,
            },
            Event::Write { addr, class } if colorable(class) => Event::Write {
                addr: remap(addr),
                class,
            },
            Event::Prefetch { addr, class } if colorable(class) => Event::Prefetch {
                addr: remap(addr),
                class,
            },
            Event::BlockOpBegin { mut op } => {
                if colorable(op.src_class) {
                    op.src = remap(op.src);
                }
                if colorable(op.dst_class) {
                    op.dst = remap(op.dst);
                }
                Event::BlockOpBegin { op }
            }
            other => other,
        }
    }

    /// The relocation stage: a pure per-event address map.
    fn apply_reloc(&self, e: Event) -> Event {
        let Some(map) = self.reloc else { return e };
        let remap = |a: Addr| map.lookup(a).unwrap_or(a);
        match e {
            Event::Read { addr, class } => Event::Read {
                addr: remap(addr),
                class,
            },
            Event::Write { addr, class } => Event::Write {
                addr: remap(addr),
                class,
            },
            Event::Prefetch { addr, class } => Event::Prefetch {
                addr: remap(addr),
                class,
            },
            Event::LockAcquire { lock, addr } => Event::LockAcquire {
                lock,
                addr: remap(addr),
            },
            Event::LockRelease { lock, addr } => Event::LockRelease {
                lock,
                addr: remap(addr),
            },
            Event::Barrier {
                barrier,
                addr,
                participants,
            } => Event::Barrier {
                barrier,
                addr: remap(addr),
                participants,
            },
            other => other,
        }
    }

    /// Emits one post-privatization event through relocation and escape
    /// instrumentation straight into a chunk builder.
    fn emit(&self, meta: &TraceMeta, out: &mut ChunkedStreamBuilder, e: Event) {
        let e = self.apply_reloc(e);
        out.push(e);
        if self.escapes {
            if let Event::Exec { block } = e {
                let bb = meta.code.block(block);
                out.push(Event::Read {
                    addr: Addr(bb.start.0 | 1),
                    class: DataClass::KernelOther,
                });
            }
        }
    }

    /// Runs the enabled stages over `trace` in one walk per stream,
    /// decoding one chunk at a time and re-encoding into fresh chunks: peak
    /// memory per stream is one decode window plus one open output chunk,
    /// independent of trace length. Deferral drops whole brackets as the
    /// walk reaches them, coloring and relocation are pure per-event maps,
    /// and privatization's two-event peephole needs only a one-event
    /// lookahead, which the peekable stream provides across chunk
    /// boundaries.
    pub fn run(&self, trace: &ChunkedTrace) -> ChunkedTrace {
        assert!(
            self.defer.is_none() || self.color.is_none(),
            "coloring's first-touch map must see the deferred trace: run deferral first"
        );
        let mut out = ChunkedTrace::new(trace.n_cpus(), trace.meta.clone());
        for (cpu, stream) in trace.streams.iter().enumerate() {
            let mut b = ChunkedStreamBuilder::new();
            match self.defer {
                Some(summary) => {
                    self.rewrite(trace, cpu, summary.stage(cpu, stream.iter()), &mut b)
                }
                None => self.rewrite(trace, cpu, stream.iter(), &mut b),
            }
            out.streams[cpu] = b.finish();
        }
        out
    }

    /// The stages after deferral over stream `cpu`'s (deferred) events.
    fn rewrite(
        &self,
        trace: &ChunkedTrace,
        cpu: usize,
        events: impl Iterator<Item = Event>,
        b: &mut ChunkedStreamBuilder,
    ) {
        let meta = &trace.meta;
        let mut it = events.peekable();
        while let Some(e) = it.next() {
            let e = self.apply_color(e);
            if let Some(index) = &self.privatize {
                match e {
                    Event::Read { addr, class } => {
                        let w = addr.0 & !(WORD_SIZE - 1);
                        if let Some(idx) = index.get(w) {
                            // Update (read+write pair) → private copy. The
                            // lookahead sees the *colored* next event,
                            // exactly as a privatization pass running after
                            // a coloring pass would.
                            let paired = it.peek().is_some_and(|&n| {
                                matches!(
                                    self.apply_color(n),
                                    Event::Write { addr: wa, .. }
                                        if wa.0 & !(WORD_SIZE - 1) == w
                                )
                            });
                            if paired {
                                it.next();
                                let p = private_copy_addr(idx, cpu);
                                self.emit(meta, b, Event::Read { addr: p, class });
                                self.emit(meta, b, Event::Write { addr: p, class });
                                continue;
                            }
                            // Aggregate use → read every CPU's copy.
                            for c in 0..trace.n_cpus() {
                                let addr = private_copy_addr(idx, c);
                                self.emit(meta, b, Event::Read { addr, class });
                            }
                            continue;
                        }
                    }
                    Event::Write { addr, class } => {
                        let w = addr.0 & !(WORD_SIZE - 1);
                        if let Some(idx) = index.get(w) {
                            let addr = private_copy_addr(idx, cpu);
                            self.emit(meta, b, Event::Write { addr, class });
                            continue;
                        }
                    }
                    _ => {}
                }
            }
            self.emit(meta, b, e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oscache_trace::{Mode, StreamBuilder, TraceMeta};

    #[test]
    fn relocation_map_remaps_ranges() {
        let mut m = RelocationMap::new();
        // Deliberately out of order: finish() sorts once.
        m.add(Addr(200), 4, Addr(2000));
        m.add(Addr(100), 8, Addr(1000));
        // Lookups on the unfinished map already answer correctly.
        assert_eq!(m.lookup(Addr(107)), Some(Addr(1007)));
        assert_eq!(m.lookup(Addr(108)), None);
        m.finish();
        assert_eq!(m.lookup(Addr(100)), Some(Addr(1000)));
        assert_eq!(m.lookup(Addr(107)), Some(Addr(1007)));
        assert_eq!(m.lookup(Addr(108)), None);
        assert_eq!(m.lookup(Addr(202)), Some(Addr(2002)));
        assert_eq!(m.lookup(Addr(99)), None);
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn relocation_lookups_at_the_span_edges() {
        let mut m = RelocationMap::new();
        m.add(Addr(0x300), 0x10, Addr(0x9300));
        m.add(Addr(0x100), 0x20, Addr(0x9100));
        // Unfinished: the linear scan answers, with no span to consult.
        assert_eq!(m.lookup(Addr(0x30f)), Some(Addr(0x930f)));
        assert_eq!(m.lookup(Addr(0xff)), None);
        assert_eq!(m.lookup(Addr(0x200)), None);
        m.finish();
        // One below the first start.
        assert_eq!(m.lookup(Addr(0xff)), None);
        assert_eq!(m.lookup(Addr(0)), None);
        assert_eq!(m.lookup(Addr(0x100)), Some(Addr(0x9100)));
        // Inside the gap between the ranges, at both of its edges.
        assert_eq!(m.lookup(Addr(0x120)), None);
        assert_eq!(m.lookup(Addr(0x200)), None);
        assert_eq!(m.lookup(Addr(0x2ff)), None);
        // Exactly at the last end, and just inside it.
        assert_eq!(m.lookup(Addr(0x310)), None);
        assert_eq!(m.lookup(Addr(0x30f)), Some(Addr(0x930f)));
        assert_eq!(m.lookup(Addr(u32::MAX)), None);
        // A range ending at the top of the address space.
        let mut top = RelocationMap::new();
        top.add(Addr(u32::MAX - 0xf), 0x10, Addr(0x100));
        top.finish();
        assert_eq!(top.lookup(Addr(u32::MAX)), Some(Addr(0x10f)));
        assert_eq!(top.lookup(Addr(u32::MAX - 0x10)), None);
        // An empty map, finished or not, covers nothing.
        let mut empty = RelocationMap::new();
        assert_eq!(empty.lookup(Addr(0)), None);
        empty.finish();
        assert_eq!(empty.lookup(Addr(0)), None);
    }

    #[test]
    #[should_panic(expected = "overlapping")]
    fn overlapping_ranges_panic() {
        let mut m = RelocationMap::new();
        m.add(Addr(100), 8, Addr(1000));
        m.add(Addr(104), 8, Addr(2000));
        m.finish();
    }

    #[test]
    fn update_page_plan_fits_one_page() {
        let t = oscache_workloads::build_chunked(
            oscache_workloads::Workload::Trfd4,
            oscache_workloads::BuildOptions {
                scale: 0.05,
                seed: 9,
                ..Default::default()
            },
        );
        let p = crate::analysis::profile_sharing(&t);
        let privatized = crate::analysis::find_privatizable(&p);
        let set = crate::analysis::find_update_set(&p, &privatized);
        let (map, pages) = update_page_plan(&t.meta, &set);
        assert!(!map.is_empty());
        assert_eq!(pages.len(), 1, "update set must fit one page: {pages:?}");
    }

    #[test]
    fn escape_instrumentation_is_low_perturbation() {
        // The §2.2 check: instrumenting every basic block with an escape
        // load must not significantly change the measured OS behaviour.
        let t = oscache_workloads::build_chunked(
            oscache_workloads::Workload::TrfdMake,
            oscache_workloads::BuildOptions {
                scale: 0.1,
                seed: 4,
                ..Default::default()
            },
        );
        let instrumented = TransformPipeline::new().escapes().run(&t);
        // Escapes added one read per Exec event.
        let execs: usize = t
            .streams
            .iter()
            .flat_map(|s| s.iter())
            .filter(|e| matches!(e, Event::Exec { .. }))
            .count();
        let reads = |t: &ChunkedTrace| {
            let events = t.streams.iter().flat_map(|s| s.iter());
            events.filter(Event::is_read).count()
        };
        assert_eq!(
            reads(&instrumented),
            reads(&t) + execs,
            "one escape per basic block"
        );
        let base = crate::sim::run_system(&t, crate::config::System::Base);
        let inst = crate::sim::run_system(&instrumented, crate::config::System::Base);
        // The paper's perturbation criteria (§2.2): no change in paging
        // activity or in the relative frequency of OS routines — here,
        // identical block-operation counts and a near-identical OS time
        // share.
        assert_eq!(
            base.stats.total().blk_ops,
            inst.stats.total().blk_ops,
            "instrumentation must not change paging/copy activity"
        );
        let m0 = crate::metrics::WorkloadMetrics::from_stats(&base.stats);
        let m1 = crate::metrics::WorkloadMetrics::from_stats(&inst.stats);
        assert!(
            (m0.os_time_pct - m1.os_time_pct).abs() < 5.0,
            "OS time share perturbed: {:.1} vs {:.1}",
            m0.os_time_pct,
            m1.os_time_pct
        );
        // Coherence structure is untouched (escapes are private reads).
        let coh0: u64 = base.stats.total().os_miss_coherence.iter().sum();
        let coh1: u64 = inst.stats.total().os_miss_coherence.iter().sum();
        let ratio = coh1 as f64 / coh0.max(1) as f64;
        assert!(
            (0.8..=1.25).contains(&ratio),
            "coherence misses diverged: {coh0} vs {coh1}"
        );
    }

    /// The events of `t`'s stream 0 after the coloring stage.
    fn colored(t: &ChunkedTrace) -> Vec<Event> {
        let out = TransformPipeline::new().coloring(t, 256 * 1024).run(t);
        out.streams[0].iter().collect()
    }

    #[test]
    fn coloring_spreads_conflicting_pages() {
        // Pages all congruent modulo the L2: coloring must separate them.
        let mut t = ChunkedTrace::new(1, TraceMeta::default());
        let mut b = StreamBuilder::new();
        b.set_mode(Mode::Os);
        for k in 0..8u32 {
            // Stride of exactly the L2 size: one color, guaranteed conflicts.
            b.read(Addr(0x1000_0000 + k * 256 * 1024), DataClass::PageFrame);
        }
        t.streams[0] = b.finish();
        let out = colored(&t);
        let colors: std::collections::HashSet<u32> = out
            .iter()
            .filter_map(|e| e.data_addr())
            .map(|a| a.page() % 64)
            .collect();
        assert_eq!(colors.len(), 8, "eight pages must get eight colors");
        // Offsets preserved.
        let first = out[1].data_addr().unwrap();
        assert_eq!(first.page_offset(), 0);
    }

    #[test]
    fn coloring_is_consistent_across_events_and_block_ops() {
        let mut t = ChunkedTrace::new(1, TraceMeta::default());
        let mut b = StreamBuilder::new();
        b.begin_block_copy(
            Addr(0x1000_0000),
            Addr(0x1100_0000),
            64,
            DataClass::PageFrame,
            DataClass::PageFrame,
        );
        b.read(Addr(0x1000_0008), DataClass::PageFrame);
        b.write(Addr(0x1100_0008), DataClass::PageFrame);
        b.end_block_op();
        b.read(Addr(0x1000_0008), DataClass::PageFrame);
        t.streams[0] = b.finish();
        let evs = colored(&t);
        let (src, dst) = match evs[0] {
            Event::BlockOpBegin { op } => (op.src, op.dst),
            _ => unreachable!(),
        };
        // The descriptor and the enclosed/later references agree.
        assert_eq!(evs[1].data_addr().unwrap(), src.offset(8));
        assert_eq!(evs[2].data_addr().unwrap(), dst.offset(8));
        // evs[3] is BlockOpEnd; the read after the op still agrees.
        assert_eq!(evs[4].data_addr().unwrap(), src.offset(8));
        // Kernel static addresses are untouched.
        assert_ne!(src, Addr(0x1000_0000), "page must move");
    }

    #[test]
    fn coloring_leaves_kernel_structures_alone() {
        let mut t = ChunkedTrace::new(1, TraceMeta::default());
        let mut b = StreamBuilder::new();
        b.read(Addr(0x0100_0000), DataClass::InfreqCounter);
        b.read(Addr(0x1000_0000), DataClass::PageFrame);
        t.streams[0] = b.finish();
        let evs = colored(&t);
        assert_eq!(evs[0].data_addr().unwrap(), Addr(0x0100_0000));
        assert_ne!(evs[1].data_addr().unwrap(), Addr(0x1000_0000));
    }

    #[test]
    fn deferral_composes_with_the_later_stages() {
        // Deferral fused with every later stage but coloring equals the
        // deferred trace rewritten by those stages in a second walk.
        let t = oscache_workloads::build_chunked(
            oscache_workloads::Workload::Shell,
            oscache_workloads::BuildOptions {
                scale: 0.05,
                seed: 9,
                ..Default::default()
            },
        );
        let summary = crate::deferred::summarize(&t);
        assert!(summary.counts.readonly_small_copies > 0);
        let p = crate::analysis::profile_sharing(&t);
        let privatized = crate::analysis::find_privatizable(&p);
        assert!(!privatized.is_empty(), "need privatization targets");
        let plan = false_sharing_plan(&t.meta, &HashSet::new());
        let later = || {
            TransformPipeline::new()
                .privatize(&privatized)
                .relocate(&plan)
                .escapes()
        };
        let fused = later().defer(&summary).run(&t);
        let deferred = TransformPipeline::new().defer(&summary).run(&t);
        let staged = later().run(&deferred);
        for cpu in 0..t.n_cpus() {
            assert_eq!(
                fused.streams[cpu].iter().collect::<Vec<_>>(),
                staged.streams[cpu].iter().collect::<Vec<_>>(),
                "cpu {cpu}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "run deferral first")]
    fn deferral_and_coloring_do_not_share_a_walk() {
        let t = ChunkedTrace::new(1, TraceMeta::default());
        let summary = crate::deferred::summarize(&t);
        TransformPipeline::new()
            .defer(&summary)
            .coloring(&t, 256 * 1024)
            .run(&t);
    }
}
