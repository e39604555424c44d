//! Compact chunked trace storage: the streaming backbone.
//!
//! A [`ChunkedStream`] holds a CPU's reference stream as a sequence of
//! independently-decodable [`EncodedChunk`]s of a fixed event capacity
//! (the last chunk may be short). Events are byte-packed with
//! delta-encoded addresses and LEB128 varints, which shrinks a stream
//! from 16 bytes per materialized [`Event`] to typically 2–6 bytes —
//! and, more importantly, lets every consumer work from a decode window
//! of one chunk instead of a flat `Vec<Event>` of the whole trace.
//!
//! Design invariants (DESIGN.md §16):
//!
//! * **Fixed capacity**: every chunk except the last holds exactly
//!   [`ChunkedStream::capacity`] events, so the chunk containing event
//!   `i` is `i / capacity` — random access is O(1) chunk lookup plus one
//!   bounded decode, which is what the simulator's lock-retry and
//!   block-op scans need.
//! * **Independent chunks**: the delta-encoder state resets at every
//!   chunk boundary (the first address in a chunk is a delta from 0), so
//!   a chunk decodes without touching its predecessors.
//! * **Lossless**: encoding is a bijection on well-formed events; the
//!   round-trip tests pin `decode(encode(e)) == e` for every event, and
//!   the cross-crate chunk-capacity oracle pins that where chunk
//!   boundaries fall never changes a simulation result.

use crate::spill::{FrameRef, MemBudget, SpillStore, SpillTarget};
use crate::validate::{check_meta, facts_prove_valid, StreamFacts, StreamProver, TraceValidator};
use crate::{
    Addr, BarrierId, BlockId, BlockKind, BlockOp, DataClass, Event, LockId, Mode, TraceError,
    TraceMeta,
};
use std::sync::Arc;
use std::time::Instant;

/// Default events per chunk. 4096 events decode to a 64 KiB window —
/// small enough to live in L2 while a per-CPU cursor replays it, large
/// enough that re-decode overhead is amortized over thousands of events.
pub const CHUNK_EVENTS: usize = 4096;

// ---- event byte codec ------------------------------------------------------

const TAG_EXEC: u8 = 0;
const TAG_READ: u8 = 1;
const TAG_WRITE: u8 = 2;
const TAG_PREFETCH: u8 = 3;
const TAG_LOCK_ACQUIRE: u8 = 4;
const TAG_LOCK_RELEASE: u8 = 5;
const TAG_BARRIER: u8 = 6;
const TAG_BLOCK_BEGIN: u8 = 7;
const TAG_BLOCK_END: u8 = 8;
const TAG_SET_MODE: u8 = 9;
const TAG_IDLE: u8 = 10;

fn push_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn read_varint(bytes: &[u8], pos: &mut usize) -> u64 {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let byte = bytes[*pos];
        *pos += 1;
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return v;
        }
        shift += 7;
    }
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

fn push_delta(out: &mut Vec<u8>, last: &mut u32, addr: Addr) {
    push_varint(out, zigzag(i64::from(addr.0) - i64::from(*last)));
    *last = addr.0;
}

fn read_delta(bytes: &[u8], pos: &mut usize, last: &mut u32) -> Addr {
    let a = (i64::from(*last) + unzigzag(read_varint(bytes, pos))) as u32;
    *last = a;
    Addr(a)
}

fn byte_class(b: u8) -> DataClass {
    // A class's byte is its discriminant: its index in `DataClass::all()`.
    DataClass::all()[usize::from(b)]
}

/// Appends `e` to `out`, updating the running address `last`.
fn encode_event(out: &mut Vec<u8>, last: &mut u32, e: &Event) {
    match *e {
        Event::Exec { block } => {
            out.push(TAG_EXEC);
            push_varint(out, u64::from(block.0));
        }
        Event::Read { addr, class } => {
            out.push(TAG_READ);
            out.push(class as u8);
            push_delta(out, last, addr);
        }
        Event::Write { addr, class } => {
            out.push(TAG_WRITE);
            out.push(class as u8);
            push_delta(out, last, addr);
        }
        Event::Prefetch { addr, class } => {
            out.push(TAG_PREFETCH);
            out.push(class as u8);
            push_delta(out, last, addr);
        }
        Event::LockAcquire { lock, addr } => {
            out.push(TAG_LOCK_ACQUIRE);
            push_varint(out, u64::from(lock.0));
            push_delta(out, last, addr);
        }
        Event::LockRelease { lock, addr } => {
            out.push(TAG_LOCK_RELEASE);
            push_varint(out, u64::from(lock.0));
            push_delta(out, last, addr);
        }
        Event::Barrier {
            barrier,
            addr,
            participants,
        } => {
            out.push(TAG_BARRIER);
            push_varint(out, u64::from(barrier.0));
            push_delta(out, last, addr);
            out.push(participants);
        }
        Event::BlockOpBegin { op } => {
            let kind = match op.kind {
                BlockKind::Copy => 0u8,
                BlockKind::Zero => 1u8,
            };
            out.push(TAG_BLOCK_BEGIN | (kind << 4));
            push_delta(out, last, op.src);
            push_delta(out, last, op.dst);
            push_varint(out, u64::from(op.len));
            out.push(op.src_class as u8);
            out.push(op.dst_class as u8);
        }
        Event::BlockOpEnd => out.push(TAG_BLOCK_END),
        Event::SetMode { mode } => {
            let m = u8::from(mode.is_os());
            out.push(TAG_SET_MODE | (m << 4));
        }
        Event::Idle { cycles } => {
            out.push(TAG_IDLE);
            push_varint(out, u64::from(cycles));
        }
    }
}

/// Decodes one event from `bytes` at `pos`, updating the running address.
fn decode_event(bytes: &[u8], pos: &mut usize, last: &mut u32) -> Event {
    let tag = bytes[*pos];
    *pos += 1;
    let (kind, payload) = (tag & 0x0f, tag >> 4);
    match kind {
        TAG_EXEC => Event::Exec {
            block: BlockId(read_varint(bytes, pos) as u32),
        },
        TAG_READ | TAG_WRITE | TAG_PREFETCH => {
            let class = byte_class(bytes[*pos]);
            *pos += 1;
            let addr = read_delta(bytes, pos, last);
            match kind {
                TAG_READ => Event::Read { addr, class },
                TAG_WRITE => Event::Write { addr, class },
                _ => Event::Prefetch { addr, class },
            }
        }
        TAG_LOCK_ACQUIRE | TAG_LOCK_RELEASE => {
            let lock = LockId(read_varint(bytes, pos) as u16);
            let addr = read_delta(bytes, pos, last);
            if kind == TAG_LOCK_ACQUIRE {
                Event::LockAcquire { lock, addr }
            } else {
                Event::LockRelease { lock, addr }
            }
        }
        TAG_BARRIER => {
            let barrier = BarrierId(read_varint(bytes, pos) as u16);
            let addr = read_delta(bytes, pos, last);
            let participants = bytes[*pos];
            *pos += 1;
            Event::Barrier {
                barrier,
                addr,
                participants,
            }
        }
        TAG_BLOCK_BEGIN => {
            let kind = if payload & 1 == 1 {
                BlockKind::Zero
            } else {
                BlockKind::Copy
            };
            let src = read_delta(bytes, pos, last);
            let dst = read_delta(bytes, pos, last);
            let len = read_varint(bytes, pos) as u32;
            let src_class = byte_class(bytes[*pos]);
            let dst_class = byte_class(bytes[*pos + 1]);
            *pos += 2;
            Event::BlockOpBegin {
                op: BlockOp {
                    src,
                    dst,
                    len,
                    kind,
                    src_class,
                    dst_class,
                },
            }
        }
        TAG_BLOCK_END => Event::BlockOpEnd,
        TAG_SET_MODE => Event::SetMode {
            mode: if payload & 1 == 1 {
                Mode::Os
            } else {
                Mode::User
            },
        },
        TAG_IDLE => Event::Idle {
            cycles: read_varint(bytes, pos) as u32,
        },
        other => unreachable!("corrupt chunk: unknown event tag {other}"),
    }
}

// ---- chunk / stream / trace types ------------------------------------------

/// One independently-decodable run of byte-packed events.
///
/// The payload lives either in memory or in a [`SpillStore`] segment
/// frame — the *chunk source* seam: every consumer decodes through
/// [`EncodedChunk::decode_into`], which is source-agnostic, so the
/// generators, the transform pipeline, and the replay loops never know
/// (or care) whether a chunk was spilled.
#[derive(Clone, Debug)]
pub struct EncodedChunk {
    /// Number of events in this chunk.
    n_events: u32,
    /// Where the packed event bytes live.
    payload: ChunkPayload,
}

/// Where a chunk's encoded bytes are held.
#[derive(Clone, Debug)]
enum ChunkPayload {
    /// Resident in memory (the historical representation).
    Inline(Vec<u8>),
    /// On disk, as a CRC-checked frame in a spill segment.
    Spilled {
        /// The owning store (keeps the segment files alive).
        store: Arc<SpillStore>,
        /// Which frame.
        frame: FrameRef,
    },
}

impl EncodedChunk {
    /// Number of events in this chunk.
    pub fn len(&self) -> usize {
        self.n_events as usize
    }

    /// True when the chunk holds no events.
    pub fn is_empty(&self) -> bool {
        self.n_events == 0
    }

    /// Encoded size in bytes.
    pub fn byte_len(&self) -> usize {
        match &self.payload {
            ChunkPayload::Inline(b) => b.len(),
            ChunkPayload::Spilled { frame, .. } => frame.len as usize,
        }
    }

    /// True when the payload lives on disk.
    pub fn is_spilled(&self) -> bool {
        matches!(self.payload, ChunkPayload::Spilled { .. })
    }

    /// Runs `f` over the encoded bytes, fetching (and, on corruption,
    /// salvaging) them from the spill store when the chunk is spilled.
    fn with_bytes<R>(&self, f: impl FnOnce(&[u8]) -> R) -> R {
        match &self.payload {
            ChunkPayload::Inline(b) => f(b),
            ChunkPayload::Spilled { store, frame } => f(&store.frame_bytes(frame)),
        }
    }

    /// The encoded bytes, materialized (reading through the spill store
    /// when needed). Rebuild and conversion paths use this; decoding goes
    /// through [`EncodedChunk::decode_into`] without the copy.
    pub fn encoded_bytes(&self) -> Vec<u8> {
        self.with_bytes(<[u8]>::to_vec)
    }

    /// Appends this chunk's decoded events to `out`.
    pub fn decode_into(&self, out: &mut Vec<Event>) {
        self.with_bytes(|bytes| self.decode_bytes(bytes, out));
    }

    /// [`EncodedChunk::decode_into`], answering a spilled frame that can
    /// be neither read nor salvaged with an error message instead of a
    /// panic (see [`SpillStore::try_frame_bytes`]).
    fn try_decode_into(&self, out: &mut Vec<Event>) -> Result<(), String> {
        match &self.payload {
            ChunkPayload::Inline(b) => self.decode_bytes(b, out),
            ChunkPayload::Spilled { store, frame } => {
                self.decode_bytes(&store.try_frame_bytes(frame)?, out);
            }
        }
        Ok(())
    }

    fn decode_bytes(&self, bytes: &[u8], out: &mut Vec<Event>) {
        out.reserve(self.len());
        let mut pos = 0usize;
        let mut last = 0u32;
        for _ in 0..self.n_events {
            out.push(decode_event(bytes, &mut pos, &mut last));
        }
        debug_assert_eq!(pos, bytes.len(), "trailing bytes in chunk");
    }
}

impl PartialEq for EncodedChunk {
    fn eq(&self, other: &Self) -> bool {
        if self.n_events != other.n_events {
            return false;
        }
        match (&self.payload, &other.payload) {
            (ChunkPayload::Inline(a), ChunkPayload::Inline(b)) => a == b,
            // At least one side is spilled: compare materialized bytes
            // (test/oracle territory — the hot paths never compare chunks).
            _ => self.encoded_bytes() == other.encoded_bytes(),
        }
    }
}

impl Eq for EncodedChunk {}

/// Incremental chunk encoder: push events, get a [`ChunkedStream`].
///
/// Only the current (partial) chunk's bytes are mutable state; completed
/// chunks are sealed as they fill, so a builder's peak overhead over the
/// encoded output is one chunk's bytes. Every pushed event also runs
/// through the trace validator, and the finished stream records what that
/// proved, so validating a trace never reads its chunks back
/// (DESIGN.md §16).
#[derive(Debug)]
pub struct ChunkedStreamBuilder {
    capacity: usize,
    chunks: Vec<EncodedChunk>,
    cur: Vec<u8>,
    cur_events: u32,
    last_addr: u32,
    len: usize,
    spill: Option<SpillTarget>,
    prover: StreamProver,
}

impl ChunkedStreamBuilder {
    /// A builder with the default [`CHUNK_EVENTS`] capacity.
    pub fn new() -> Self {
        Self::with_capacity(CHUNK_EVENTS)
    }

    /// A builder with an explicit per-chunk event capacity (tests use
    /// tiny capacities to exercise boundary handling).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "chunk capacity must be positive");
        ChunkedStreamBuilder {
            capacity,
            chunks: Vec::new(),
            cur: Vec::new(),
            cur_events: 0,
            last_addr: 0,
            len: 0,
            spill: None,
            prover: StreamProver::new(),
        }
    }

    /// A default-capacity builder that consults `target`'s budget at
    /// every seal: chunks the budget refuses to keep resident are written
    /// to the target's segment as they seal, so a governed build's peak
    /// memory stays O(chunk) rather than O(trace). A failed spill write
    /// degrades to keeping that chunk resident (and flags the budget) —
    /// the built stream is identical either way.
    pub fn with_spill(target: SpillTarget) -> Self {
        let mut b = Self::with_capacity(CHUNK_EVENTS);
        b.spill = Some(target);
        b
    }

    /// Appends one event.
    pub fn push(&mut self, e: Event) {
        self.prover.push(self.len, &e);
        encode_event(&mut self.cur, &mut self.last_addr, &e);
        self.cur_events += 1;
        self.len += 1;
        if self.cur_events as usize == self.capacity {
            self.seal();
        }
    }

    fn seal(&mut self) {
        let bytes = std::mem::take(&mut self.cur);
        let payload = seal_payload(bytes, self.chunks.len(), self.spill.as_ref());
        self.chunks.push(EncodedChunk {
            n_events: self.cur_events,
            payload,
        });
        self.cur_events = 0;
        // Each chunk decodes independently: the delta base resets.
        self.last_addr = 0;
    }

    /// Events pushed so far.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing has been pushed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Seals the trailing partial chunk and returns the finished stream.
    /// A spilling builder also seals its segment (temp-then-rename); a
    /// failed seal degrades to rebuild-on-read, never to an error here.
    pub fn finish(mut self) -> ChunkedStream {
        if self.cur_events > 0 {
            self.seal();
        }
        if let Some(t) = &self.spill {
            let _ = t.store.seal(t.cpu);
        }
        ChunkedStream {
            chunks: self.chunks,
            len: self.len,
            capacity: self.capacity,
            facts: self.prover.finish(),
        }
    }
}

/// Decides where a freshly-sealed chunk's bytes live: spilled to the
/// target's segment when the budget wants it (and the write succeeds),
/// resident otherwise.
fn seal_payload(bytes: Vec<u8>, chunk_idx: usize, spill: Option<&SpillTarget>) -> ChunkPayload {
    let Some(t) = spill else {
        return ChunkPayload::Inline(bytes);
    };
    if t.budget.wants_spill(bytes.len()) {
        let t0 = Instant::now();
        match t.store.append_frame(t.cpu, chunk_idx, &bytes) {
            Ok(frame) => {
                t.budget
                    .note_spilled(bytes.len(), t0.elapsed().as_nanos() as u64);
                return ChunkPayload::Spilled {
                    store: t.store.clone(),
                    frame,
                };
            }
            Err(_) => t.budget.note_degraded(),
        }
    }
    t.budget.charge_inline(bytes.len());
    ChunkPayload::Inline(bytes)
}

impl Default for ChunkedStreamBuilder {
    fn default() -> Self {
        Self::new()
    }
}

/// One CPU's reference stream as fixed-capacity encoded chunks.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChunkedStream {
    chunks: Vec<EncodedChunk>,
    len: usize,
    capacity: usize,
    /// What the encoder proved about the events (see
    /// [`ChunkedTrace::validate`]). Private, and set only when the stream
    /// is sealed, so it always describes exactly these events.
    facts: StreamFacts,
}

impl Default for ChunkedStream {
    /// [`ChunkedStream::new`]: a default stream has the default capacity,
    /// so re-encoding an edited copy at its `capacity()` works for it too.
    fn default() -> Self {
        Self::new()
    }
}

impl ChunkedStream {
    /// An empty stream (default capacity).
    pub fn new() -> Self {
        ChunkedStream {
            chunks: Vec::new(),
            len: 0,
            capacity: CHUNK_EVENTS,
            facts: StreamFacts::default(),
        }
    }

    /// Encodes events from an iterator with an explicit chunk capacity.
    pub fn from_events<I: IntoIterator<Item = Event>>(events: I, capacity: usize) -> Self {
        let mut b = ChunkedStreamBuilder::with_capacity(capacity);
        for e in events {
            b.push(e);
        }
        b.finish()
    }

    /// Total events across all chunks.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the stream has no events.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Events per full chunk. Every chunk except the last holds exactly
    /// this many events, so event `i` lives in chunk `i / capacity`.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of chunks.
    pub fn n_chunks(&self) -> usize {
        self.chunks.len()
    }

    /// Encoded size in bytes.
    pub fn byte_len(&self) -> usize {
        self.chunks.iter().map(EncodedChunk::byte_len).sum()
    }

    /// Index of the first event of chunk `c`.
    pub fn chunk_start(&self, c: usize) -> usize {
        c * self.capacity
    }

    /// Decodes chunk `c` into `out` (cleared first).
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of range.
    pub fn decode_chunk(&self, c: usize, out: &mut Vec<Event>) {
        out.clear();
        self.chunks[c].decode_into(out);
    }

    /// [`ChunkedStream::decode_chunk`] for callers that must not panic: a
    /// spilled chunk that can be neither read nor salvaged is an error.
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of range.
    pub fn try_decode_chunk(&self, c: usize, out: &mut Vec<Event>) -> Result<(), String> {
        out.clear();
        self.chunks[c].try_decode_into(out)
    }

    /// The encoded bytes of chunk `c`, materialized — the extraction hook
    /// spill rebuilders use to re-derive a frame from a freshly-rebuilt
    /// stream. `None` when `c` is out of range.
    pub fn chunk_bytes(&self, c: usize) -> Option<Vec<u8>> {
        self.chunks.get(c).map(EncodedChunk::encoded_bytes)
    }

    /// Number of chunks whose payload lives on disk.
    pub fn spilled_chunks(&self) -> usize {
        self.chunks.iter().filter(|c| c.is_spilled()).count()
    }

    /// Converts resident chunks the budget refuses to keep into spilled
    /// frames of `cpu`'s segment, freeing each chunk's bytes as it lands
    /// on disk (the conversion itself is O(chunk) extra memory). A failed
    /// write degrades: the budget is flagged, the remaining chunks stay
    /// resident and are charged to it. Returns bytes spilled.
    pub fn spill_residents(
        &mut self,
        store: &Arc<SpillStore>,
        cpu: usize,
        budget: &Arc<MemBudget>,
    ) -> u64 {
        let mut spilled = 0u64;
        let mut degraded = false;
        for (idx, chunk) in self.chunks.iter_mut().enumerate() {
            let ChunkPayload::Inline(bytes) = &chunk.payload else {
                continue;
            };
            if degraded || !budget.wants_spill(bytes.len()) {
                budget.charge_inline(bytes.len());
                continue;
            }
            let t0 = Instant::now();
            match store.append_frame(cpu, idx, bytes) {
                Ok(frame) => {
                    budget.note_spilled(bytes.len(), t0.elapsed().as_nanos() as u64);
                    spilled += bytes.len() as u64;
                    chunk.payload = ChunkPayload::Spilled {
                        store: store.clone(),
                        frame,
                    };
                }
                Err(_) => {
                    budget.note_degraded();
                    budget.charge_inline(bytes.len());
                    degraded = true;
                }
            }
        }
        let _ = store.seal(cpu);
        spilled
    }

    /// An iterator over all decoded events, one chunk in memory at a time.
    pub fn iter(&self) -> ChunkEvents<'_> {
        ChunkEvents {
            stream: self,
            next_chunk: 0,
            buf: Vec::new(),
            pos: 0,
        }
    }
}

/// Chunk-at-a-time decoding iterator over a [`ChunkedStream`]'s events.
#[derive(Debug)]
pub struct ChunkEvents<'a> {
    stream: &'a ChunkedStream,
    next_chunk: usize,
    buf: Vec<Event>,
    pos: usize,
}

impl Iterator for ChunkEvents<'_> {
    type Item = Event;

    fn next(&mut self) -> Option<Event> {
        while self.pos >= self.buf.len() {
            if self.next_chunk >= self.stream.n_chunks() {
                return None;
            }
            self.stream.decode_chunk(self.next_chunk, &mut self.buf);
            self.next_chunk += 1;
            self.pos = 0;
        }
        let e = self.buf[self.pos];
        self.pos += 1;
        Some(e)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let done = if self.next_chunk == 0 {
            0
        } else {
            self.stream.chunk_start(self.next_chunk - 1) + self.pos
        };
        let left = self.stream.len() - done;
        (left, Some(left))
    }
}

impl<'a> IntoIterator for &'a ChunkedStream {
    type Item = Event;
    type IntoIter = ChunkEvents<'a>;

    fn into_iter(self) -> ChunkEvents<'a> {
        self.iter()
    }
}

/// A complete multiprocessor trace: one [`ChunkedStream`] per CPU plus the
/// workload's [`TraceMeta`].
///
/// Each stream carries what its encoder proved about its events, so
/// [`ChunkedTrace::validate`] is O(streams + barriers) for every trace the
/// encoder can vouch for, and never reads chunk bytes back (DESIGN.md §16).
#[derive(Clone, Debug, Default)]
pub struct ChunkedTrace {
    /// Per-CPU chunked reference streams.
    pub streams: Vec<ChunkedStream>,
    /// Code layout, kernel variables, kernel data ranges.
    pub meta: TraceMeta,
}

impl ChunkedTrace {
    /// An empty chunked trace with `n_cpus` streams.
    pub fn new(n_cpus: usize, meta: TraceMeta) -> Self {
        ChunkedTrace {
            streams: (0..n_cpus).map(|_| ChunkedStream::new()).collect(),
            meta,
        }
    }

    /// Number of CPU streams.
    pub fn n_cpus(&self) -> usize {
        self.streams.len()
    }

    /// The same events and metadata re-encoded at `capacity` events per
    /// chunk, one decoded chunk at a time, so chunk boundaries land
    /// wherever `capacity` puts them.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn rechunk(&self, capacity: usize) -> ChunkedTrace {
        ChunkedTrace {
            streams: self
                .streams
                .iter()
                .map(|s| ChunkedStream::from_events(s, capacity))
                .collect(),
            meta: self.meta.clone(),
        }
    }

    /// Total events across all streams.
    pub fn total_events(&self) -> usize {
        self.streams.iter().map(ChunkedStream::len).sum()
    }

    /// Encoded size in bytes across all streams.
    pub fn byte_len(&self) -> usize {
        self.streams.iter().map(ChunkedStream::byte_len).sum()
    }

    /// Chunks whose payload lives on disk, across all streams.
    pub fn spilled_chunks(&self) -> usize {
        self.streams.iter().map(ChunkedStream::spilled_chunks).sum()
    }

    /// [`ChunkedStream::spill_residents`] over every stream: stream `k`
    /// spills into `store`'s CPU-`k` segment. Used to push analysis
    /// intermediates (transform outputs built without a spill target)
    /// under the budget after the fact. Returns bytes spilled. Moving
    /// bytes to disk changes no event, so the streams' facts stay.
    pub fn spill_residents(&mut self, store: &Arc<SpillStore>, budget: &Arc<MemBudget>) -> u64 {
        self.streams
            .iter_mut()
            .enumerate()
            .map(|(cpu, s)| s.spill_residents(store, cpu, budget))
            .sum()
    }

    /// Checks every structural invariant a well-formed trace satisfies,
    /// returning the first violation. Replay consumers (`Machine::new`) and
    /// the dump reader ([`read_trace`](crate::read_trace)) call this, so a
    /// malformed or adversarial trace is rejected with a typed error before
    /// simulation starts.
    ///
    /// The metadata checks run every time. The event invariants are
    /// answered from the facts each stream's encoder recorded; when they
    /// cannot prove the trace valid, [`ChunkedTrace::validate_by_scan`]
    /// runs instead and returns the first violation.
    pub fn validate(&self) -> Result<(), TraceError> {
        check_meta(&self.meta)?;
        if facts_prove_valid(&self.meta, self.streams.iter().map(|s| &s.facts)) {
            return Ok(());
        }
        self.validate_by_scan()
    }

    /// The full validation scan: every event of every stream through the
    /// validator, streaming chunk-by-chunk (one decode window per stream),
    /// ignoring the encoders' facts. It is the error path of
    /// [`ChunkedTrace::validate`] and the reference the facts are tested
    /// against.
    pub fn validate_by_scan(&self) -> Result<(), TraceError> {
        let mut v = TraceValidator::new(&self.meta, self.n_cpus())?;
        for (cpu, stream) in self.streams.iter().enumerate() {
            let mut st = v.stream_state();
            for (index, ev) in stream.iter().enumerate() {
                v.step(&mut st, cpu, index, &ev)?;
            }
            v.finish_stream(st, cpu)?;
        }
        Ok(())
    }

    /// Like [`ChunkedTrace::validate`], additionally requiring exactly
    /// `expected` CPU streams (an O(1) check, made first).
    pub fn validate_for_cpus(&self, expected: usize) -> Result<(), TraceError> {
        if self.n_cpus() != expected {
            return Err(TraceError::CpuCountMismatch {
                expected,
                actual: self.n_cpus(),
            });
        }
        self.validate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{StreamBuilder, PAGE_SIZE};

    fn all_kinds() -> Vec<Event> {
        vec![
            Event::SetMode { mode: Mode::Os },
            Event::Exec { block: BlockId(3) },
            Event::Read {
                addr: Addr(0x0100_0000),
                class: DataClass::InfreqCounter,
            },
            Event::Write {
                addr: Addr(0x0100_0004),
                class: DataClass::FreqShared,
            },
            Event::Prefetch {
                addr: Addr(0xFFFF_FFF0),
                class: DataClass::UserStack,
            },
            Event::LockAcquire {
                lock: LockId(7),
                addr: Addr(0x0100_0300),
            },
            Event::LockRelease {
                lock: LockId(7),
                addr: Addr(0x0100_0300),
            },
            Event::Barrier {
                barrier: BarrierId(2),
                addr: Addr(0x0100_0340),
                participants: 4,
            },
            Event::BlockOpBegin {
                op: BlockOp {
                    src: Addr(0x1000_0000),
                    dst: Addr(0x2000_0000),
                    len: PAGE_SIZE,
                    kind: BlockKind::Copy,
                    src_class: DataClass::PageFrame,
                    dst_class: DataClass::UserData,
                },
            },
            Event::BlockOpEnd,
            Event::BlockOpBegin {
                op: BlockOp {
                    src: Addr(0x3000_0000),
                    dst: Addr(0x3000_0000),
                    len: 64,
                    kind: BlockKind::Zero,
                    src_class: DataClass::PageFrame,
                    dst_class: DataClass::PageFrame,
                },
            },
            Event::BlockOpEnd,
            Event::SetMode { mode: Mode::User },
            Event::Idle { cycles: 0 },
            Event::Idle { cycles: u32::MAX },
            Event::Read {
                addr: Addr(0),
                class: DataClass::BarrierVar,
            },
        ]
    }

    #[test]
    fn every_event_kind_round_trips() {
        for cap in [1usize, 2, 3, 7, CHUNK_EVENTS] {
            let s = ChunkedStream::from_events(all_kinds(), cap);
            assert_eq!(s.len(), all_kinds().len());
            let back: Vec<Event> = s.iter().collect();
            assert_eq!(back, all_kinds(), "capacity {cap}");
            let (mut by_chunk, mut buf) = (Vec::new(), Vec::new());
            for c in 0..s.n_chunks() {
                s.decode_chunk(c, &mut buf);
                by_chunk.extend_from_slice(&buf);
            }
            assert_eq!(by_chunk, all_kinds(), "capacity {cap}");
        }
    }

    #[test]
    fn class_byte_matches_declaration_order() {
        for (i, &c) in DataClass::all().iter().enumerate() {
            assert_eq!(usize::from(c as u8), i);
            assert_eq!(byte_class(c as u8), c);
        }
    }

    #[test]
    fn varint_and_zigzag_round_trip() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            push_varint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(read_varint(&buf, &mut pos), v);
            assert_eq!(pos, buf.len());
        }
        for v in [
            0i64,
            1,
            -1,
            63,
            -64,
            i64::from(i32::MAX),
            -i64::from(i32::MAX),
        ] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn chunk_shape_invariant_holds() {
        let events: Vec<Event> = (0..10).map(|k| Event::Idle { cycles: k }).collect();
        let s = ChunkedStream::from_events(events, 4);
        assert_eq!(s.n_chunks(), 3);
        assert_eq!(s.capacity(), 4);
        let mut buf = Vec::new();
        s.decode_chunk(0, &mut buf);
        assert_eq!(buf.len(), 4);
        s.decode_chunk(2, &mut buf);
        assert_eq!(buf.len(), 2);
        assert_eq!(s.chunk_start(2), 8);
    }

    #[test]
    fn empty_stream_is_fine() {
        let s = ChunkedStream::from_events(std::iter::empty(), 8);
        assert!(s.is_empty());
        assert_eq!(s.iter().count(), 0);
        assert_eq!(s.n_chunks(), 0);
        assert_eq!(s.byte_len(), 0);
    }

    #[test]
    fn delta_state_resets_per_chunk() {
        // Two far-apart addresses straddling a chunk boundary: chunk 1
        // must decode correctly in isolation.
        let events = vec![
            Event::Read {
                addr: Addr(0xF000_0000),
                class: DataClass::UserData,
            },
            Event::Read {
                addr: Addr(0x10),
                class: DataClass::UserData,
            },
        ];
        let s = ChunkedStream::from_events(events.clone(), 1);
        let mut buf = Vec::new();
        s.decode_chunk(1, &mut buf);
        assert_eq!(buf, &events[1..]);
    }

    #[test]
    fn encoding_is_compact() {
        let mut b = StreamBuilder::new();
        b.set_mode(Mode::Os);
        for k in 0..1000u32 {
            b.read(Addr(0x0100_0000 + k * 4), DataClass::KernelOther);
        }
        b.set_mode(Mode::User);
        let c = b.finish();
        let flat = c.len() * std::mem::size_of::<Event>();
        assert!(
            c.byte_len() * 3 < flat,
            "encoded {} vs flat {flat}",
            c.byte_len()
        );
    }

    #[test]
    fn chunked_trace_round_trips_and_validates() {
        let mut meta = TraceMeta::default();
        let site = meta.code.add_site("p", false);
        let bb = meta.code.add_block(Addr(0x100), 3, site);
        let mut c = ChunkedTrace::new(2, meta);
        let mut b = StreamBuilder::new();
        b.set_mode(Mode::Os);
        b.exec(bb);
        b.lock_acquire(LockId(1), Addr(0x40));
        b.read(Addr(0x0100_0000), DataClass::KernelOther);
        b.lock_release(LockId(1), Addr(0x40));
        b.set_mode(Mode::User);
        c.streams[0] = b.finish();
        assert_eq!(c.total_events(), 6);
        assert_eq!(c.validate(), Ok(()));
        assert_eq!(c.validate_for_cpus(2), Ok(()));
        assert!(matches!(
            c.validate_for_cpus(4),
            Err(TraceError::CpuCountMismatch { .. })
        ));
        for s in &c.streams {
            let back = ChunkedStream::from_events(s, 2);
            assert!(back.iter().eq(s), "re-encoding changed the events");
        }
    }

    #[test]
    fn rechunk_keeps_events_and_metadata() {
        let mut meta = TraceMeta::default();
        let site = meta.code.add_site("p", false);
        let bb = meta.code.add_block(Addr(0x100), 3, site);
        let mut c = ChunkedTrace::new(3, meta);
        for (cpu, n) in [(0, 7usize), (1, 1)] {
            let mut b = StreamBuilder::new();
            for k in 0..n as u32 {
                b.exec(bb);
                b.read(Addr(0x0100_0000 + 16 * k), DataClass::KernelOther);
            }
            c.streams[cpu] = b.finish();
        }
        for capacity in [1, 3, CHUNK_EVENTS] {
            let r = c.rechunk(capacity);
            assert_eq!(r.n_cpus(), 3);
            assert_eq!(r.meta.code.block(bb), c.meta.code.block(bb));
            for (s, back) in c.streams.iter().zip(&r.streams) {
                assert_eq!(back.capacity(), capacity);
                assert_eq!(back.n_chunks(), s.len().div_ceil(capacity));
                assert!(back.iter().eq(s), "capacity {capacity} changed the events");
            }
            assert_eq!(r.validate(), Ok(()));
        }
    }

    fn tiny_budget() -> Arc<MemBudget> {
        // 0 MB budget: every sealed chunk wants to spill.
        MemBudget::new_mb(0)
    }

    fn test_store(label: &str, n_cpus: usize) -> Arc<SpillStore> {
        SpillStore::create(
            label,
            crate::spill::StoreIdentity {
                scale_bits: 1.0f64.to_bits(),
                seed: 1,
                n_cpus: n_cpus as u32,
            },
            n_cpus,
            None,
        )
        .expect("spill store")
    }

    #[test]
    fn spilled_stream_round_trips_identically() {
        let store = test_store("chunk-spill", 1);
        let budget = tiny_budget();
        let mut b = ChunkedStreamBuilder::with_spill(SpillTarget {
            store: store.clone(),
            cpu: 0,
            budget: budget.clone(),
        });
        // Force tiny chunks to exercise many frames.
        b.capacity = 3;
        let events: Vec<Event> = all_kinds();
        for e in &events {
            b.push(*e);
        }
        let spilled = b.finish();
        assert!(spilled.spilled_chunks() > 0, "nothing spilled");
        assert_eq!(budget.spilled_bytes(), spilled.byte_len() as u64);
        let inline = ChunkedStream::from_events(events.clone(), 3);
        assert_eq!(spilled, inline, "spilled != inline stream");
        let back: Vec<Event> = spilled.iter().collect();
        assert_eq!(back, events);
        // Random chunk access decodes through the store too.
        let mut buf = Vec::new();
        spilled.decode_chunk(1, &mut buf);
        assert_eq!(buf, &events[3..6]);
        // chunk_bytes materializes spilled frames for rebuilders.
        assert_eq!(
            spilled.chunk_bytes(1),
            inline.chunk_bytes(1),
            "extracted bytes differ"
        );
    }

    #[test]
    fn post_hoc_spill_conversion_is_transparent() {
        let events: Vec<Event> = (0..100).map(|k| Event::Idle { cycles: k + 1 }).collect();
        let inline = ChunkedStream::from_events(events.clone(), 8);
        let mut t = ChunkedTrace {
            streams: vec![inline.clone()],
            meta: TraceMeta::default(),
        };
        t.validate().expect("idle stream is valid");
        let store = test_store("chunk-posthoc", 1);
        let budget = tiny_budget();
        let spilled_bytes = t.spill_residents(&store, &budget);
        assert_eq!(spilled_bytes, inline.byte_len() as u64);
        assert_eq!(t.spilled_chunks(), inline.n_chunks());
        assert_eq!(t.streams[0], inline);
        let back: Vec<Event> = t.streams[0].iter().collect();
        assert_eq!(back, events);
    }

    #[test]
    fn generous_budget_keeps_chunks_resident() {
        let store = test_store("chunk-resident", 1);
        let budget = MemBudget::new_mb(64);
        let mut b = ChunkedStreamBuilder::with_spill(SpillTarget {
            store,
            cpu: 0,
            budget: budget.clone(),
        });
        for e in all_kinds() {
            b.push(e);
        }
        let s = b.finish();
        assert_eq!(s.spilled_chunks(), 0);
        assert_eq!(budget.spilled_bytes(), 0);
        assert_eq!(budget.resident_bytes(), s.byte_len() as u64);
    }

    /// A one-CPU trace that acquires lock 3 and never releases it.
    fn lock_leak() -> ChunkedTrace {
        let acquire = Event::LockAcquire {
            lock: LockId(3),
            addr: Addr(0x40),
        };
        ChunkedTrace {
            streams: vec![ChunkedStream::from_events(vec![acquire], 1)],
            meta: TraceMeta::default(),
        }
    }

    #[test]
    fn chunked_validate_rejects_violations() {
        let bad = lock_leak();
        assert!(!bad.streams[0].facts.clean, "the encoder saw the leak");
        let first = bad.validate();
        assert!(matches!(first, Err(TraceError::LockHeldAtEnd { .. })));
        assert_eq!(bad.validate(), first, "a repeat returns the same error");
        // The CPU-count check runs before the facts on every call.
        assert_eq!(
            bad.validate_for_cpus(2),
            Err(TraceError::CpuCountMismatch {
                expected: 2,
                actual: 1
            })
        );
        assert_eq!(bad.validate_for_cpus(1), first);
    }

    #[test]
    fn encoder_records_what_validation_needs() {
        let mut meta = TraceMeta::default();
        let site = meta.code.add_site("p", false);
        for k in 0..4 {
            meta.code.add_block(Addr(0x100 + 16 * k), 3, site);
        }
        let arrive = |barrier, participants| Event::Barrier {
            barrier: BarrierId(barrier),
            addr: Addr(0x80),
            participants,
        };
        let events = vec![
            Event::Exec { block: BlockId(2) },
            arrive(5, 2),
            Event::Exec { block: BlockId(0) },
            arrive(1, 2),
            arrive(5, 2),
        ];
        let s = ChunkedStream::from_events(events, 2);
        let facts = &s.facts;
        assert!(facts.clean);
        assert_eq!(facts.block_end, 3);
        assert_eq!(facts.barriers, vec![(BarrierId(1), 2), (BarrierId(5), 2)]);
        assert_eq!(ChunkedStream::new().facts, StreamFacts::default());
        let t = ChunkedTrace {
            streams: vec![s.clone(), s],
            meta,
        };
        assert!(facts_prove_valid(
            &t.meta,
            t.streams.iter().map(|s| &s.facts)
        ));
        assert_eq!(t.validate(), Ok(()));
        // One CPU is too few for a two-participant barrier: not proven,
        // and the scan names the first arrival.
        let solo = ChunkedTrace {
            streams: vec![t.streams[0].clone()],
            meta: t.meta.clone(),
        };
        assert!(!facts_prove_valid(
            &solo.meta,
            solo.streams.iter().map(|s| &s.facts)
        ));
        assert!(matches!(
            solo.validate(),
            Err(TraceError::BarrierParticipants {
                cpu: 0,
                index: 1,
                ..
            })
        ));
    }

    /// Overwrites the on-disk payload of every spilled chunk of `t`.
    fn corrupt_every_frame(t: &ChunkedTrace) -> usize {
        use std::os::unix::fs::FileExt;
        let mut hit = 0;
        for s in &t.streams {
            for c in &s.chunks {
                let ChunkPayload::Spilled { store, frame } = &c.payload else {
                    continue;
                };
                let f = std::fs::OpenOptions::new()
                    .write(true)
                    .open(store.segment_path(frame.cpu as usize))
                    .expect("open segment");
                f.write_all_at(&vec![0xA5; frame.len as usize], frame.offset)
                    .expect("corrupt frame");
                hit += 1;
            }
        }
        hit
    }

    #[test]
    fn validation_reads_nothing_back() {
        let events: Vec<Event> = all_kinds()
            .into_iter()
            .filter(|e| !matches!(e, Event::Exec { .. } | Event::Barrier { .. }))
            .collect();
        // Built spilling at seal, and spilled after the fact.
        let store = test_store("chunk-noread", 2);
        let mut b = ChunkedStreamBuilder::with_spill(SpillTarget {
            store: store.clone(),
            cpu: 0,
            budget: tiny_budget(),
        });
        b.capacity = 3;
        for e in &events {
            b.push(*e);
        }
        let at_seal = b.finish();
        let mut post_hoc = ChunkedStream::from_events(events.clone(), 3);
        let facts = post_hoc.facts.clone();
        post_hoc.spill_residents(&store, 1, &tiny_budget());
        assert_eq!(post_hoc.facts, facts, "spilling keeps the facts");
        let t = ChunkedTrace {
            streams: vec![at_seal, post_hoc],
            meta: TraceMeta::default(),
        };
        assert_eq!(t.spilled_chunks(), 2 * events.len().div_ceil(3));
        assert_eq!(corrupt_every_frame(&t), t.spilled_chunks());
        // No rebuilder is installed: any frame read would panic.
        assert_eq!(t.validate(), Ok(()));
        let copy = t.clone();
        assert_eq!(copy.streams[1].facts, facts, "clones keep the facts");
        assert_eq!(copy.validate_for_cpus(2), Ok(()));
        assert_eq!(store.salvage_count(), 0);
    }
}
