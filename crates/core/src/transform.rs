//! Software-optimization passes applied to a trace before simulation: the
//! §5.1 privatization and relocation, the §5.2 update-page placement, and
//! the §6 hot-spot prefetch insertion.
//!
//! Each pass rewrites the reference stream exactly the way recompiling the
//! kernel with the optimization would: privatized counters become per-CPU
//! copies in distinct cache lines (aggregate uses read all copies),
//! relocated variables move to fresh line-aligned homes, update-mapped
//! variables are gathered into one page, and prefetch instructions appear
//! ahead of the loads they cover.
//!
//! The address rewrites are *fused*: [`TransformPipeline`] applies any
//! combination of coloring, privatization, relocation and escape
//! instrumentation in one streaming walk over each chunked stream, in
//! that fixed composition order. Hot-spot prefetching runs after them as
//! a [`HotspotPlan`] the replay merges into its decode windows, so no
//! prefetch-carrying trace is ever encoded outside the oracles. The
//! per-pass functions ([`privatize_counters`], [`relocate`], …) are thin
//! wrappers over those two; the original pass-by-pass implementations
//! over the materialized [`Trace`] live on verbatim in [`compat`] as the
//! equivalence oracle.

use crate::analysis::UpdateSet;
use oscache_trace::{
    Addr, ChunkedStreamBuilder, ChunkedTrace, DataClass, Event, PlanEntry, Stream, Trace,
    TraceMeta, WORD_SIZE,
};
use std::collections::{HashMap, HashSet, VecDeque};

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

/// Rewrites counter updates to per-CPU private copies and expands
/// aggregate reads into reads of every copy (§5.1: "instead of reading one
/// counter, [the pager] reads all the private sub-counters and adds them
/// all up").
pub fn privatize_counters(trace: &ChunkedTrace, targets: &[Addr]) -> ChunkedTrace {
    TransformPipeline::new().privatize(targets).run(trace)
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
        self.dirty = false;
    }

    /// Remaps one address, if covered. Binary search after
    /// [`RelocationMap::finish`]; a linear scan (first matching range wins)
    /// on a map still under construction.
    pub fn lookup(&self, a: Addr) -> Option<Addr> {
        if self.dirty {
            return self
                .ranges
                .iter()
                .find(|&&(s, len, _)| a.0 >= s && a.0 < s + len)
                .map(|&(s, _, new)| Addr(new + (a.0 - s)));
        }
        let i = match self.ranges.binary_search_by(|&(s, _, _)| s.cmp(&a.0)) {
            Ok(i) => i,
            Err(0) => return None,
            Err(i) => i - 1,
        };
        let (start, len, new) = self.ranges[i];
        (a.0 < start + len).then(|| Addr(new + (a.0 - start)))
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

/// Applies an address remapping to every reference in the trace.
pub fn relocate(trace: &ChunkedTrace, map: &RelocationMap) -> ChunkedTrace {
    TransformPipeline::new().relocate(map).run(trace)
}

pub use oscache_trace::{HotspotPlan, LOOP_AHEAD};

/// How far back (in events) a sequence prefetch may be hoisted. The paper
/// notes hoisting is limited by operand availability and stops at routine
/// boundaries ("the prefetch should be moved to the callers … we do not
/// do this").
pub const HOIST_LIMIT: usize = 24;

/// Inserts prefetches at the given hot sites (§6): loop sites prefetch
/// [`LOOP_AHEAD`] bytes ahead at each access; sequence sites hoist a
/// prefetch of the accessed line up to [`HOIST_LIMIT`] events earlier,
/// never across synchronization, block operations, or mode switches.
///
/// This is the reference expansion ([`HotspotPlan::materialize`]) for
/// tests and oracles; a replay merges the plan instead (see
/// [`Machine::with_prefetches`](oscache_memsys::Machine::with_prefetches)).
pub fn insert_hotspot_prefetches(trace: &ChunkedTrace, hot_sites: &[u16]) -> ChunkedTrace {
    build_hotspot_plan(trace).materialize(trace, hot_sites)
}

/// The hot-spot stage split in two: this walk records, for *every* site,
/// the prefetches the stage would insert if that site were hot, as one
/// [`HotspotPlan`] over `trace`; a replay then merges one concrete hot
/// set's entries into its decode windows
/// ([`Machine::with_prefetches`](oscache_memsys::Machine::with_prefetches)).
///
/// A profiling caller that tries several cache geometries over one
/// working trace pays the stage's walk once instead of once per distinct
/// hot set. The split is sound because the stage's decisions are
/// per-site-run: `recent_lines` resets whenever the current site changes
/// and is consulted only for reads attributed to that site, and hoist
/// targets are chosen from the input-event window alone — so whether
/// *other* sites are hot never changes what one site inserts. The tests
/// pin event-for-event equality of the plan's expansion against
/// [`compat::insert_hotspot_prefetches`].
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

/// One stream's plan entries, in generation order: the per-site
/// bookkeeping walk.
fn plan_stream(meta: &TraceMeta, events: impl Iterator<Item = Event>) -> Vec<PlanEntry> {
    let mut ins: Vec<PlanEntry> = Vec::new();
    let mut cur_site: Option<u16> = None;
    let mut site_is_loop = false;
    let mut in_blockop = false;
    let mut recent_lines: Vec<u32> = Vec::new();
    let mut window: VecDeque<(bool, u32)> = VecDeque::with_capacity(HOIST_LIMIT + 1);
    for (i, e) in events.enumerate() {
        let i = i as u32;
        match e {
            Event::Exec { block } => {
                let bb = meta.code.block(block);
                if cur_site != Some(bb.site.0) {
                    cur_site = Some(bb.site.0);
                    site_is_loop = meta.code.site(bb.site).is_loop;
                    recent_lines.clear();
                }
            }
            Event::BlockOpBegin { .. } => in_blockop = true,
            Event::BlockOpEnd => in_blockop = false,
            Event::Read { addr, class } if !in_blockop && cur_site.is_some() => {
                let site = cur_site.expect("guarded");
                let line = addr.0 & !15;
                if !recent_lines.contains(&line) {
                    recent_lines.push(line);
                    if recent_lines.len() > 16 {
                        recent_lines.remove(0);
                    }
                    if site_is_loop {
                        ins.push(PlanEntry::new(i, site, addr, class, true));
                    } else {
                        let mut target = i;
                        for (hoisted, &(blocks, p)) in window.iter().rev().enumerate() {
                            if blocks || hoisted >= HOIST_LIMIT {
                                break;
                            }
                            target = p;
                        }
                        ins.push(PlanEntry::new(target, site, addr, class, false));
                    }
                }
            }
            _ => {}
        }
        let blocks = matches!(
            e,
            Event::LockAcquire { .. }
                | Event::LockRelease { .. }
                | Event::Barrier { .. }
                | Event::BlockOpBegin { .. }
                | Event::BlockOpEnd
                | Event::SetMode { .. }
                | Event::Idle { .. }
        );
        window.push_back((blocks, i));
        if window.len() > HOIST_LIMIT {
            window.pop_front();
        }
    }
    ins
}

/// Marker class re-export used by tests.
pub fn is_prefetch(e: &Event) -> bool {
    matches!(e, Event::Prefetch { .. })
}

/// The §2.2 escape instrumentation: one escape load per basic block,
/// reading an odd address in the code segment so the performance monitor
/// can reconstruct the instruction stream. The paper measured that this
/// inflates code size by ~30% yet "does not significantly affect the
/// metrics"; [`crate::Repro`]-level comparisons of an instrumented trace
/// against the original reproduce that perturbation study.
pub fn instrument_escapes(trace: &ChunkedTrace) -> ChunkedTrace {
    TransformPipeline::new().escapes().run(trace)
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

/// Careful page placement (cache coloring), the §7 "possible optimization"
/// the paper attributes to Kessler & Hill and Bershad et al.: pages of
/// dynamically-allocated data are assigned so that consecutive allocations
/// spread evenly over the secondary cache's page colors instead of landing
/// wherever the free list happens to point.
///
/// Pages are remapped in first-touch order, round-robin over
/// `l2_size / PAGE_SIZE` colors, preserving page offsets. The paper notes
/// the scheme's shortcoming — placement is page-grained, "not optimal for
/// the many small data structures in the kernel" — which is why it is an
/// extension here, not part of the §4–§6 ladder.
pub fn color_pages(trace: &ChunkedTrace, l2_size: u32) -> ChunkedTrace {
    TransformPipeline::new().coloring(trace, l2_size).run(trace)
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

/// A fused trace rewrite: any combination of the address passes applied
/// in one streaming walk over each chunked stream.
///
/// Stages run per event in the fixed order the old pass chain composed
/// them: **coloring → privatization → relocation → escape
/// instrumentation**. Coloring and relocation are pure per-event address
/// maps; privatization's two-event peephole applies coloring to its
/// lookahead on the fly, so the fused output is event-for-event identical
/// to running the stages as separate whole-trace passes (the [`compat`]
/// oracle, pinned by the equivalence tests).
///
/// Plans are still computed separately — the pipeline consumes a finished
/// [`RelocationMap`] and privatization targets; it only fuses the
/// *rewrites*, which is where the per-pass chain paid a full clone + walk
/// each. Hot-spot prefetch insertion hoists prefetches backwards, so it
/// is not a stage here: it goes through [`HotspotPlan`].
#[derive(Default)]
pub struct TransformPipeline<'a> {
    /// First-touch page map for the coloring stage.
    color: Option<HashMap<u32, u32>>,
    /// Word → target-index map for the privatization stage.
    privatize: Option<HashMap<u32, usize>>,
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

    /// Enables page coloring. The first-touch page map is computed here,
    /// by streaming `trace` — pass the same trace to
    /// [`TransformPipeline::run`].
    pub fn coloring(mut self, trace: &ChunkedTrace, l2_size: u32) -> Self {
        self.color = Some(first_touch_color_map(trace, l2_size));
        self
    }

    /// Enables counter privatization for `targets`.
    pub fn privatize(mut self, targets: &[Addr]) -> Self {
        self.privatize = Some(
            targets
                .iter()
                .enumerate()
                .map(|(i, a)| (a.0 & !(WORD_SIZE - 1), i))
                .collect(),
        );
        self
    }

    /// Enables relocation through `map` (callers should have `finish()`ed
    /// it; an unfinished map still works but looks up linearly).
    pub fn relocate(mut self, map: &'a RelocationMap) -> Self {
        self.reloc = Some(map);
        self
    }

    /// Enables §2.2 escape instrumentation.
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
    /// independent of trace length. Coloring and relocation are pure
    /// per-event maps, and privatization's two-event peephole needs only a
    /// one-event lookahead, which the peekable chunk iterator provides
    /// across chunk boundaries.
    pub fn run(&self, trace: &ChunkedTrace) -> ChunkedTrace {
        let n_cpus = trace.n_cpus();
        let mut out = ChunkedTrace::new(n_cpus, trace.meta.clone());
        for (cpu, stream) in trace.streams.iter().enumerate() {
            let mut b = ChunkedStreamBuilder::new();
            let mut it = stream.iter().peekable();
            while let Some(e) = it.next() {
                let e = self.apply_color(e);
                if let Some(index) = &self.privatize {
                    match e {
                        Event::Read { addr, class } => {
                            let w = addr.0 & !(WORD_SIZE - 1);
                            if let Some(&idx) = index.get(&w) {
                                // Update (read+write pair) → private copy.
                                // The lookahead sees the *colored* next
                                // event, exactly as a privatization pass
                                // running after a coloring pass would.
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
                                    let meta = &trace.meta;
                                    self.emit(meta, &mut b, Event::Read { addr: p, class });
                                    self.emit(meta, &mut b, Event::Write { addr: p, class });
                                    continue;
                                }
                                // Aggregate use → read every CPU's copy.
                                for c in 0..n_cpus {
                                    self.emit(
                                        &trace.meta,
                                        &mut b,
                                        Event::Read {
                                            addr: private_copy_addr(idx, c),
                                            class,
                                        },
                                    );
                                }
                                continue;
                            }
                        }
                        Event::Write { addr, class } => {
                            let w = addr.0 & !(WORD_SIZE - 1);
                            if let Some(&idx) = index.get(&w) {
                                self.emit(
                                    &trace.meta,
                                    &mut b,
                                    Event::Write {
                                        addr: private_copy_addr(idx, cpu),
                                        class,
                                    },
                                );
                                continue;
                            }
                        }
                        _ => {}
                    }
                }
                self.emit(&trace.meta, &mut b, e);
            }
            out.streams[cpu] = b.finish();
        }
        out
    }
}

/// The original pass-by-pass rewrites, kept verbatim as the equivalence
/// oracle for [`TransformPipeline`]: each function materializes a full
/// trace per pass, which is exactly the cost the fused pipeline removes.
/// The `pipeline_matches_*` tests pin output equality event-for-event.
pub mod compat {
    use super::*;

    /// Oracle for the privatization stage (see [`super::privatize_counters`]).
    pub fn privatize_counters(trace: &Trace, targets: &[Addr]) -> Trace {
        let index: HashMap<u32, usize> = targets
            .iter()
            .enumerate()
            .map(|(i, a)| (a.0 & !(WORD_SIZE - 1), i))
            .collect();
        let n_cpus = trace.n_cpus();
        let mut out = trace.clone();
        for (cpu, stream) in trace.streams.iter().enumerate() {
            let events = stream.events();
            let mut new = Vec::with_capacity(events.len());
            let mut i = 0;
            while i < events.len() {
                match events[i] {
                    Event::Read { addr, class } => {
                        let w = addr.0 & !(WORD_SIZE - 1);
                        if let Some(&idx) = index.get(&w) {
                            if let Some(Event::Write { addr: wa, .. }) = events.get(i + 1) {
                                if wa.0 & !(WORD_SIZE - 1) == w {
                                    let p = private_copy_addr(idx, cpu);
                                    new.push(Event::Read { addr: p, class });
                                    new.push(Event::Write { addr: p, class });
                                    i += 2;
                                    continue;
                                }
                            }
                            for c in 0..n_cpus {
                                new.push(Event::Read {
                                    addr: private_copy_addr(idx, c),
                                    class,
                                });
                            }
                            i += 1;
                            continue;
                        }
                        new.push(events[i]);
                    }
                    Event::Write { addr, class } => {
                        let w = addr.0 & !(WORD_SIZE - 1);
                        if let Some(&idx) = index.get(&w) {
                            new.push(Event::Write {
                                addr: private_copy_addr(idx, cpu),
                                class,
                            });
                            i += 1;
                            continue;
                        }
                        new.push(events[i]);
                    }
                    e => new.push(e),
                }
                i += 1;
            }
            out.streams[cpu] = Stream::from_events(new);
        }
        out
    }

    /// Oracle for the relocation stage (see [`super::relocate`]).
    pub fn relocate(trace: &Trace, map: &RelocationMap) -> Trace {
        let mut out = trace.clone();
        let remap = |a: Addr| map.lookup(a).unwrap_or(a);
        for stream in &mut out.streams {
            let events = std::mem::take(stream).into_events();
            let new: Vec<Event> = events
                .into_iter()
                .map(|e| match e {
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
                })
                .collect();
            *stream = Stream::from_events(new);
        }
        out
    }

    /// Oracle for the hot-spot stage (see [`super::insert_hotspot_prefetches`]).
    pub fn insert_hotspot_prefetches(trace: &Trace, hot_sites: &[u16]) -> Trace {
        let hot: HashSet<u16> = hot_sites.iter().copied().collect();
        let mut out = trace.clone();
        for stream in &mut out.streams {
            let events = std::mem::take(stream).into_events();
            // insertions[i] = prefetches to emit immediately before event i.
            let mut insertions: HashMap<usize, Vec<Event>> = HashMap::new();
            let mut cur_site: Option<u16> = None;
            let mut site_is_loop = false;
            let mut in_blockop = false;
            let mut recent_lines: Vec<u32> = Vec::new();
            for (i, e) in events.iter().enumerate() {
                match *e {
                    Event::Exec { block } => {
                        let bb = trace.meta.code.block(block);
                        if cur_site != Some(bb.site.0) {
                            cur_site = Some(bb.site.0);
                            site_is_loop = trace.meta.code.site(bb.site).is_loop;
                            recent_lines.clear();
                        }
                    }
                    Event::BlockOpBegin { .. } => in_blockop = true,
                    Event::BlockOpEnd => in_blockop = false,
                    Event::Read { addr, class }
                        if !in_blockop && cur_site.map(|s| hot.contains(&s)).unwrap_or(false) =>
                    {
                        let line = addr.0 & !15;
                        if recent_lines.contains(&line) {
                            continue;
                        }
                        recent_lines.push(line);
                        if recent_lines.len() > 16 {
                            recent_lines.remove(0);
                        }
                        if site_is_loop {
                            insertions.entry(i).or_default().push(Event::Prefetch {
                                addr: addr.offset(LOOP_AHEAD),
                                class,
                            });
                            insertions
                                .entry(i)
                                .or_default()
                                .push(Event::Prefetch { addr, class });
                        } else {
                            let mut j = i;
                            let mut hoisted = 0;
                            while j > 0 && hoisted < HOIST_LIMIT {
                                match events[j - 1] {
                                    Event::LockAcquire { .. }
                                    | Event::LockRelease { .. }
                                    | Event::Barrier { .. }
                                    | Event::BlockOpBegin { .. }
                                    | Event::BlockOpEnd
                                    | Event::SetMode { .. }
                                    | Event::Idle { .. } => break,
                                    _ => {
                                        j -= 1;
                                        hoisted += 1;
                                    }
                                }
                            }
                            insertions
                                .entry(j)
                                .or_default()
                                .push(Event::Prefetch { addr, class });
                        }
                    }
                    _ => {}
                }
            }
            let mut new = Vec::with_capacity(events.len() + insertions.len());
            for (i, e) in events.into_iter().enumerate() {
                if let Some(pre) = insertions.remove(&i) {
                    new.extend(pre);
                }
                new.push(e);
            }
            *stream = Stream::from_events(new);
        }
        out
    }

    /// Oracle for escape instrumentation (see [`super::instrument_escapes`]).
    pub fn instrument_escapes(trace: &Trace) -> Trace {
        let mut out = trace.clone();
        for stream in &mut out.streams {
            let events = std::mem::take(stream).into_events();
            let mut new = Vec::with_capacity(events.len() * 2);
            for e in events {
                new.push(e);
                if let Event::Exec { block } = e {
                    let bb = trace.meta.code.block(block);
                    new.push(Event::Read {
                        addr: Addr(bb.start.0 | 1),
                        class: DataClass::KernelOther,
                    });
                }
            }
            *stream = Stream::from_events(new);
        }
        out
    }

    /// Oracle for the coloring stage (see [`super::color_pages`]).
    pub fn color_pages(trace: &Trace, l2_size: u32) -> Trace {
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
            for e in stream.events() {
                match *e {
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
        let remap = |a: Addr| -> Addr {
            match map.get(&a.page()) {
                Some(&new_page) => Addr(new_page * oscache_trace::PAGE_SIZE + a.page_offset()),
                None => a,
            }
        };
        let mut out = trace.clone();
        for stream in &mut out.streams {
            let events = std::mem::take(stream).into_events();
            let new: Vec<Event> = events
                .into_iter()
                .map(|e| match e {
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
                })
                .collect();
            *stream = Stream::from_events(new);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oscache_trace::{Mode, StreamBuilder, TraceMeta};

    fn mini_trace() -> ChunkedTrace {
        let mut meta = TraceMeta::default();
        let site = meta.code.add_site("seq", false);
        let bb = meta.code.add_block(Addr(0x1000), 4, site);
        let lsite = meta.code.add_site("loop", true);
        let lb = meta.code.add_block(Addr(0x2000), 4, lsite);
        let mut t = Trace::new(2, meta);
        let mut b = StreamBuilder::new();
        b.set_mode(Mode::Os);
        b.exec(bb);
        // counter update on cpu0
        b.rmw(Addr(0x0100_0000), DataClass::InfreqCounter);
        // aggregate read
        b.read(Addr(0x0100_0000), DataClass::InfreqCounter);
        b.exec(lb);
        b.read(Addr(0x0200_0000), DataClass::PageTable);
        t.streams[0] = b.finish();
        let mut b1 = StreamBuilder::new();
        b1.set_mode(Mode::Os);
        b1.rmw(Addr(0x0100_0000), DataClass::InfreqCounter);
        t.streams[1] = b1.finish();
        ChunkedTrace::from_trace(&t)
    }

    #[test]
    fn privatize_rewrites_updates_and_expands_aggregates() {
        let t = mini_trace();
        let out = privatize_counters(&t, &[Addr(0x0100_0000)]).to_trace();
        // cpu0: rmw → private pair; aggregate read → 2 reads (2 CPUs).
        let reads0: Vec<Addr> = out.streams[0]
            .events()
            .iter()
            .filter_map(|e| match e {
                Event::Read { addr, .. } => Some(*addr),
                _ => None,
            })
            .collect();
        assert!(reads0.contains(&private_copy_addr(0, 0)));
        assert!(reads0.contains(&private_copy_addr(0, 1)));
        // No reference to the original address survives.
        for s in &out.streams {
            for e in s.events() {
                if let Some(a) = e.data_addr() {
                    assert_ne!(a, Addr(0x0100_0000));
                }
            }
        }
        // cpu1's update went to its own copy, a different line.
        let w1 = out.streams[1]
            .events()
            .iter()
            .find_map(|e| match e {
                Event::Write { addr, .. } => Some(*addr),
                _ => None,
            })
            .unwrap();
        assert_eq!(w1, private_copy_addr(0, 1));
        assert_ne!(
            private_copy_addr(0, 0).line(64),
            private_copy_addr(0, 1).line(64)
        );
    }

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
    #[should_panic(expected = "overlapping")]
    fn overlapping_ranges_panic() {
        let mut m = RelocationMap::new();
        m.add(Addr(100), 8, Addr(1000));
        m.add(Addr(104), 8, Addr(2000));
        m.finish();
    }

    #[test]
    fn relocate_rewrites_all_reference_kinds() {
        let t = mini_trace();
        let mut m = RelocationMap::new();
        m.add(Addr(0x0100_0000), 4, Addr(RELOC_BASE));
        let out = relocate(&t, &m).to_trace();
        for s in &out.streams {
            for e in s.events() {
                if let Some(a) = e.data_addr() {
                    assert_ne!(a, Addr(0x0100_0000));
                }
            }
        }
    }

    #[test]
    fn hotspot_prefetch_inserts_ahead_for_loops_and_hoists_for_sequences() {
        let t = mini_trace();
        // site ids: 0 = "seq", 1 = "loop"
        let out = insert_hotspot_prefetches(&t, &[0, 1]).to_trace();
        let evs = out.streams[0].events();
        let n_pref = evs.iter().filter(|e| is_prefetch(e)).count();
        assert!(n_pref >= 2, "expected prefetches, got {n_pref}");
        // A prefetch for the loop read's look-ahead line exists.
        assert!(evs.iter().any(|e| matches!(
            e,
            Event::Prefetch { addr, .. } if addr.0 == 0x0200_0000 + LOOP_AHEAD
        )));
        // The sequence read 0x... has no earlier reads; its prefetch is
        // hoisted before the rmw pair but not past the SetMode.
        let first_pref = evs.iter().position(is_prefetch).unwrap();
        let setmode = evs
            .iter()
            .position(|e| matches!(e, Event::SetMode { .. }))
            .unwrap();
        assert!(first_pref > setmode);
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
        let instrumented = instrument_escapes(&t);
        // Escapes added one read per Exec event.
        let execs: usize = t
            .streams
            .iter()
            .flat_map(|s| s.iter())
            .filter(|e| matches!(e, Event::Exec { .. }))
            .count();
        assert_eq!(
            instrumented.to_trace().total_reads(),
            t.to_trace().total_reads() + execs,
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

    #[test]
    fn coloring_spreads_conflicting_pages() {
        // Pages all congruent modulo the L2: coloring must separate them.
        let mut t = Trace::new(1, TraceMeta::default());
        let mut b = StreamBuilder::new();
        b.set_mode(Mode::Os);
        for k in 0..8u32 {
            // Stride of exactly the L2 size: one color, guaranteed conflicts.
            b.read(Addr(0x1000_0000 + k * 256 * 1024), DataClass::PageFrame);
        }
        t.streams[0] = b.finish();
        let out = color_pages(&ChunkedTrace::from_trace(&t), 256 * 1024).to_trace();
        let colors: std::collections::HashSet<u32> = out.streams[0]
            .events()
            .iter()
            .filter_map(|e| e.data_addr())
            .map(|a| a.page() % 64)
            .collect();
        assert_eq!(colors.len(), 8, "eight pages must get eight colors");
        // Offsets preserved.
        let first = out.streams[0].events()[1].data_addr().unwrap();
        assert_eq!(first.page_offset(), 0);
    }

    #[test]
    fn coloring_is_consistent_across_events_and_block_ops() {
        let mut t = Trace::new(1, TraceMeta::default());
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
        let out = color_pages(&ChunkedTrace::from_trace(&t), 256 * 1024).to_trace();
        let evs = out.streams[0].events();
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
        let mut t = Trace::new(1, TraceMeta::default());
        let mut b = StreamBuilder::new();
        b.read(Addr(0x0100_0000), DataClass::InfreqCounter);
        b.read(Addr(0x1000_0000), DataClass::PageFrame);
        t.streams[0] = b.finish();
        let out = color_pages(&ChunkedTrace::from_trace(&t), 256 * 1024).to_trace();
        let evs = out.streams[0].events();
        assert_eq!(evs[0].data_addr().unwrap(), Addr(0x0100_0000));
        assert_ne!(evs[1].data_addr().unwrap(), Addr(0x1000_0000));
    }

    /// Asserts two traces are event-for-event identical.
    fn assert_traces_equal(a: &Trace, b: &Trace, what: &str) {
        assert_eq!(a.streams.len(), b.streams.len(), "{what}: stream count");
        for (cpu, (sa, sb)) in a.streams.iter().zip(&b.streams).enumerate() {
            assert_eq!(
                sa.len(),
                sb.len(),
                "{what}: cpu{cpu} length {} vs {}",
                sa.len(),
                sb.len()
            );
            for (i, (ea, eb)) in sa.events().iter().zip(sb.events()).enumerate() {
                assert_eq!(ea, eb, "{what}: cpu{cpu} event {i}");
            }
        }
    }

    fn workload_trace() -> ChunkedTrace {
        oscache_workloads::build_chunked(
            oscache_workloads::Workload::Trfd4,
            oscache_workloads::BuildOptions {
                scale: 0.05,
                seed: 7,
                ..Default::default()
            },
        )
    }

    #[test]
    fn pipeline_matches_compat_single_passes() {
        let ct = workload_trace();
        let t = ct.to_trace();
        let p = crate::analysis::profile_sharing(&ct);
        let privatized = crate::analysis::find_privatizable(&p);
        assert!(!privatized.is_empty(), "need privatization targets");
        assert_traces_equal(
            &privatize_counters(&ct, &privatized).to_trace(),
            &compat::privatize_counters(&t, &privatized),
            "privatize",
        );
        let plan = false_sharing_plan(&t.meta, &HashSet::new());
        assert!(!plan.is_empty(), "need relocation ranges");
        assert_traces_equal(
            &relocate(&ct, &plan).to_trace(),
            &compat::relocate(&t, &plan),
            "relocate",
        );
        assert_traces_equal(
            &instrument_escapes(&ct).to_trace(),
            &compat::instrument_escapes(&t),
            "escapes",
        );
        assert_traces_equal(
            &color_pages(&ct, 256 * 1024).to_trace(),
            &compat::color_pages(&t, 256 * 1024),
            "coloring",
        );
        // The identity pipeline is a chunk-level copy.
        let id = TransformPipeline::new().run(&ct);
        assert_traces_equal(&t, &id.to_trace(), "identity");
    }

    #[test]
    fn fused_pipeline_matches_compat_composition() {
        // The fused walk plus the hot-spot plan must equal the pass-by-pass
        // *composition* in the pipeline's stage order, with every stage
        // enabled at once.
        let ct = workload_trace();
        let t = ct.to_trace();
        let p = crate::analysis::profile_sharing(&ct);
        let privatized = crate::analysis::find_privatizable(&p);
        let mut plan = false_sharing_plan(&t.meta, &HashSet::new());
        plan.finish();
        let sites: Vec<u16> = t.meta.code.sites().map(|(id, _)| id.0).collect();

        let fused = TransformPipeline::new()
            .coloring(&ct, 256 * 1024)
            .privatize(&privatized)
            .relocate(&plan)
            .escapes()
            .run(&ct);
        fused.validate().expect("fused output validates");
        let fused = insert_hotspot_prefetches(&fused, &sites);

        let staged = compat::color_pages(&t, 256 * 1024);
        let staged = compat::privatize_counters(&staged, &privatized);
        let staged = compat::relocate(&staged, &plan);
        let staged = compat::instrument_escapes(&staged);
        let staged = compat::insert_hotspot_prefetches(&staged, &sites);
        assert_traces_equal(&fused.to_trace(), &staged, "fused C+P+R+E+H");
    }

    #[test]
    fn hotspot_plan_matches_compat_insertion() {
        // Hot-spot insertion over every non-block-op site, loop and
        // sequence alike, exercising both insertion shapes and hoisting;
        // one plan serves every hot set.
        let ct = workload_trace();
        let t = ct.to_trace();
        let sites: Vec<u16> = t.meta.code.sites().map(|(id, _)| id.0).collect();
        let plan = build_hotspot_plan(&ct);
        assert_traces_equal(
            &plan.materialize(&ct, &sites).to_trace(),
            &compat::insert_hotspot_prefetches(&t, &sites),
            "hotspot all sites",
        );
        // A subset and the empty set (identity merge).
        let some: Vec<u16> = sites.iter().copied().take(sites.len() / 2).collect();
        assert_traces_equal(
            &plan.materialize(&ct, &some).to_trace(),
            &compat::insert_hotspot_prefetches(&t, &some),
            "hotspot subset",
        );
        assert_traces_equal(
            &plan.materialize(&ct, &[]).to_trace(),
            &t,
            "hotspot empty set",
        );
    }

    #[test]
    fn static_pages_cover_the_static_area() {
        let t = mini_trace();
        // mini trace has no vars; use a workload trace.
        assert!(static_pages(&t.meta).is_empty());
        let t2 = oscache_workloads::build_chunked(
            oscache_workloads::Workload::Shell,
            oscache_workloads::BuildOptions {
                scale: 0.05,
                seed: 9,
                ..Default::default()
            },
        );
        let pages = static_pages(&t2.meta);
        assert!(!pages.is_empty());
    }
}
