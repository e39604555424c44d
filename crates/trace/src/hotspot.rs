//! Hot-spot prefetch plans (§6) and their zero-copy merge into a replay.
//!
//! A [`HotspotPlan`] records, for *every* code site of one trace, the
//! prefetches §6 would insert if that site were hot — one compact
//! [`PlanEntry`] per insertion point. A cell that ranks a concrete hot set
//! never rewrites the trace: [`MergedStream`] splices the hot entries into
//! each decoded chunk as the replay's decode window fills. The tests
//! compare the merged stream, and its replay, against the pass-by-pass
//! insertion of the test-only `oscache-oracle` crate.

use crate::{Addr, ChunkedStream, DataClass, Event};

/// Prefetch look-ahead for loop hot spots, in bytes (§6 unrolls and
/// software-pipelines the loops).
pub const LOOP_AHEAD: u32 = 64;

/// One insertion point of a [`HotspotPlan`]: immediately before input
/// event `before`, a prefetch of `addr` — preceded, for a loop site, by a
/// prefetch [`LOOP_AHEAD`] bytes further on. Entries sharing one boundary
/// insert in plan order.
///
/// The prefetch events themselves are derived from these fields when they
/// are emitted, which keeps an entry at 12 bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PlanEntry {
    before: u32,
    addr: Addr,
    site: u16,
    class: DataClass,
    ahead: bool,
}

impl PlanEntry {
    /// A prefetch of `addr` (attributed to `class`) for hot site `site`,
    /// inserted before input event `before`; `ahead` also prefetches
    /// [`LOOP_AHEAD`] bytes further, first.
    pub fn new(before: u32, site: u16, addr: Addr, class: DataClass, ahead: bool) -> Self {
        PlanEntry {
            before,
            addr,
            site,
            class,
            ahead,
        }
    }

    /// Index of the input event this entry's prefetches precede.
    pub fn before(&self) -> u32 {
        self.before
    }

    /// Number of events the entry inserts (1, or 2 with the look-ahead).
    fn width(&self) -> usize {
        1 + usize::from(self.ahead)
    }

    /// Writes the entry's [`width`](Self::width) prefetch events into
    /// `dst`, in stream order.
    fn write_into(&self, dst: &mut [Event]) {
        let here = Event::Prefetch {
            addr: self.addr,
            class: self.class,
        };
        if self.ahead {
            dst[0] = Event::Prefetch {
                addr: self.addr.offset(LOOP_AHEAD),
                class: self.class,
            };
            dst[1] = here;
        } else {
            dst[0] = here;
        }
    }
}

/// Per-stream insertion lists for every site of one trace, each sorted by
/// [`PlanEntry::before`] (stably: entries at one boundary keep the order
/// they were recorded in).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HotspotPlan {
    streams: Vec<Vec<PlanEntry>>,
}

/// The plan with no entries, which every replay without hot-spot
/// prefetches merges.
static EMPTY_PLAN: HotspotPlan = HotspotPlan {
    streams: Vec::new(),
};

impl HotspotPlan {
    /// A plan from per-stream entry lists (any order; sorted stably here).
    pub fn new(mut streams: Vec<Vec<PlanEntry>>) -> Self {
        for s in &mut streams {
            s.sort_by_key(|e| e.before);
            s.shrink_to_fit();
        }
        streams.shrink_to_fit();
        HotspotPlan { streams }
    }

    /// The shared empty plan.
    pub fn empty() -> &'static HotspotPlan {
        &EMPTY_PLAN
    }

    /// Number of per-stream lists (0 for the empty plan).
    pub fn n_streams(&self) -> usize {
        self.streams.len()
    }

    /// Stream `cpu`'s entries, `before`-sorted (empty past the last list).
    pub fn stream(&self, cpu: usize) -> &[PlanEntry] {
        self.streams.get(cpu).map_or(&[], Vec::as_slice)
    }
}

/// One CPU's replay stream: a [`ChunkedStream`] with the entries of a hot
/// set spliced in, addressed in *merged* event indices.
///
/// Merged chunk `c` is base chunk `c` plus the hot entries whose
/// `before` falls inside it; the last merged chunk also takes the entries
/// positioned at the stream's end, and an empty base stream has one
/// merged chunk holding only those. [`MergedStream::try_fill`] decodes a
/// merged chunk into a caller's buffer — the only way a replay window is
/// ever filled — and copies nothing else: no per-replay insertion list or
/// rewritten trace exists.
#[derive(Debug)]
pub struct MergedStream<'a> {
    stream: &'a ChunkedStream,
    /// The plan's entries for this stream, every site.
    entries: &'a [PlanEntry],
    /// The hot sites whose entries are spliced in.
    hot: &'a [u16],
    /// `starts[c]`: merged index of merged chunk `c`'s first event; one
    /// more slot than chunks, the last holding the merged length.
    starts: Vec<usize>,
    /// `firsts[c]`: index in `entries` of chunk `c`'s first entry; one
    /// more slot than chunks.
    firsts: Vec<usize>,
}

impl<'a> MergedStream<'a> {
    /// Merges the entries of `hot` from `plan`'s list for stream `cpu`
    /// into `stream`, computing the merged chunk boundaries in one walk
    /// over the entries and chunks.
    ///
    /// Fails with the offending position when an entry lies past the end
    /// of the stream (`before > stream.len()`): such a plan was built for
    /// a different trace.
    pub fn new(
        stream: &'a ChunkedStream,
        plan: &'a HotspotPlan,
        cpu: usize,
        hot: &'a [u16],
    ) -> Result<Self, u32> {
        let entries = plan.stream(cpu);
        let len = stream.len();
        // Sorted by `before`: the last entry is the furthest.
        if let Some(last) = entries.last().filter(|e| e.before as usize > len) {
            return Err(last.before);
        }
        let n = stream.n_chunks().max(1);
        let cap = stream.capacity();
        let mut starts = Vec::with_capacity(n + 1);
        let mut firsts = Vec::with_capacity(n + 1);
        let mut k = 0;
        let mut extra = 0;
        for c in 0..n {
            starts.push(c * cap + extra);
            firsts.push(k);
            let end = if c + 1 == n {
                usize::MAX
            } else {
                (c + 1) * cap
            };
            while let Some(e) = entries.get(k).filter(|e| (e.before as usize) < end) {
                if hot.contains(&e.site) {
                    extra += e.width();
                }
                k += 1;
            }
        }
        starts.push(len + extra);
        firsts.push(k);
        Ok(MergedStream {
            stream,
            entries,
            hot,
            starts,
            firsts,
        })
    }

    /// Merged length: base events plus inserted prefetches.
    pub fn len(&self) -> usize {
        self.starts[self.starts.len() - 1]
    }

    /// True when the merged stream has no events.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of merged chunks (at least one).
    pub fn n_chunks(&self) -> usize {
        self.starts.len() - 1
    }

    /// Merged index of chunk `c`'s first event.
    pub fn chunk_start(&self, c: usize) -> usize {
        self.starts[c]
    }

    /// The merged chunk holding merged event `idx` (`idx < len()`).
    pub fn chunk_of(&self, idx: usize) -> usize {
        self.starts.partition_point(|&s| s <= idx) - 1
    }

    /// Fills `out` with merged chunk `c`: decodes base chunk `c`, then
    /// splices the chunk's hot entries in place, back to front, so each
    /// base event moves at most once. A spilled chunk that can be neither
    /// read nor salvaged is an error, as in
    /// [`ChunkedStream::try_decode_chunk`].
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of range.
    pub fn try_fill(&self, c: usize, out: &mut Vec<Event>) -> Result<(), String> {
        if c < self.stream.n_chunks() {
            self.stream.try_decode_chunk(c, out)?;
        } else {
            out.clear();
        }
        let base = out.len();
        let merged = self.starts[c + 1] - self.starts[c];
        if merged == base {
            return Ok(());
        }
        out.resize(merged, Event::BlockOpEnd);
        let base0 = self.stream.chunk_start(c);
        let (mut r, mut w) = (base, merged);
        let hot = self.entries[self.firsts[c]..self.firsts[c + 1]]
            .iter()
            .rev()
            .filter(|e| self.hot.contains(&e.site));
        for e in hot {
            let at = e.before as usize - base0;
            let moved = r - at;
            out.copy_within(at..r, w - moved);
            w -= moved;
            r = at;
            e.write_into(&mut out[w - e.width()..w]);
            w -= e.width();
        }
        debug_assert_eq!(w, r, "merged chunk {c} miscounted");
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read(i: u32) -> Event {
        Event::Read {
            addr: Addr(0x1000 + 4 * i),
            class: DataClass::KernelOther,
        }
    }

    fn pf(a: u32) -> Event {
        Event::Prefetch {
            addr: Addr(a),
            class: DataClass::KernelOther,
        }
    }

    fn entry(before: u32, site: u16, addr: u32, ahead: bool) -> PlanEntry {
        PlanEntry::new(before, site, Addr(addr), DataClass::KernelOther, ahead)
    }

    fn merged_events(m: &MergedStream) -> Vec<Event> {
        let mut all = Vec::new();
        let mut buf = Vec::new();
        for c in 0..m.n_chunks() {
            m.try_fill(c, &mut buf).unwrap();
            assert_eq!(buf.len(), m.starts[c + 1] - m.starts[c], "chunk {c}");
            all.extend_from_slice(&buf);
        }
        all
    }

    #[test]
    fn plan_entry_is_twelve_bytes() {
        assert!(std::mem::size_of::<PlanEntry>() <= 12);
    }

    #[test]
    fn splice_keeps_plan_order_at_a_boundary_and_appends_trailing_entries() {
        let stream = ChunkedStream::from_events((0..6).map(read), 3);
        let plan = HotspotPlan::new(vec![vec![
            entry(6, 1, 0x90, false),
            entry(3, 1, 0x30, true),
            entry(0, 2, 0x10, false),
            entry(3, 1, 0x40, false),
            entry(4, 3, 0x50, false),
        ]]);
        let m = MergedStream::new(&stream, &plan, 0, &[1, 2]).unwrap();
        let want = vec![
            pf(0x10),
            read(0),
            read(1),
            read(2),
            pf(0x30 + LOOP_AHEAD),
            pf(0x30),
            pf(0x40),
            read(3),
            read(4),
            read(5),
            pf(0x90),
        ];
        assert_eq!(m.len(), want.len());
        assert_eq!(merged_events(&m), want);
        assert_eq!(m.chunk_of(3), 0);
        assert_eq!(m.chunk_of(4), 1);
        assert_eq!(m.chunk_of(10), 1);
    }

    #[test]
    fn empty_streams_and_out_of_range_entries() {
        let empty = ChunkedStream::new();
        let plan = HotspotPlan::new(vec![vec![entry(0, 1, 0x10, true)]]);
        let m = MergedStream::new(&empty, &plan, 0, &[1]).unwrap();
        assert_eq!(merged_events(&m), vec![pf(0x10 + LOOP_AHEAD), pf(0x10)]);
        let cold = MergedStream::new(&empty, &plan, 0, &[]).unwrap();
        assert!(cold.is_empty());
        let short = ChunkedStream::from_events((0..2).map(read), 4);
        let bad = HotspotPlan::new(vec![vec![entry(3, 1, 0x10, false)]]);
        assert_eq!(MergedStream::new(&short, &bad, 0, &[]).unwrap_err(), 3);
    }
}
