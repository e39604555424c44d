//! The checked per-CPU stream builder.

use crate::chunk::{ChunkedStream, ChunkedStreamBuilder};
use crate::{Addr, BarrierId, BlockId, BlockOp, DataClass, Event, LockId, Mode};

/// Incremental [`ChunkedStream`] constructor that enforces structural
/// invariants: block-operation brackets balance and do not nest, lock
/// acquire/release pair up per lock, and redundant mode switches are
/// elided.
///
/// # Example
///
/// ```
/// use oscache_trace::{Addr, BlockKind, DataClass, Mode, StreamBuilder};
///
/// let mut b = StreamBuilder::new();
/// b.set_mode(Mode::Os);
/// b.begin_block_copy(Addr(0x1000), Addr(0x2000), 64,
///                    DataClass::PageFrame, DataClass::PageFrame);
/// b.read(Addr(0x1000), DataClass::PageFrame);
/// b.write(Addr(0x2000), DataClass::PageFrame);
/// b.end_block_op();
/// let s = b.finish();
/// assert_eq!(s.iter().filter(|e| e.is_read()).count(), 1);
/// ```
#[derive(Debug)]
pub struct StreamBuilder {
    sink: ChunkedStreamBuilder,
    mode: Mode,
    in_block_op: bool,
    held_locks: Vec<LockId>,
}

impl Default for StreamBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl StreamBuilder {
    /// Creates a builder; the initial mode is [`Mode::User`]. Events are
    /// encoded straight into chunks as they arrive, so the builder never
    /// holds more than one chunk of decoded events.
    pub fn new() -> Self {
        StreamBuilder::with_sink(ChunkedStreamBuilder::new())
    }

    /// [`StreamBuilder::new`] with a spill target: sealed chunks the
    /// target's budget refuses to keep resident are written to its segment
    /// as the stream is built. The produced events are identical; only
    /// where the encoded bytes live differs.
    pub fn new_chunked_spilling(target: crate::spill::SpillTarget) -> Self {
        StreamBuilder::with_sink(ChunkedStreamBuilder::with_spill(target))
    }

    fn with_sink(sink: ChunkedStreamBuilder) -> Self {
        StreamBuilder {
            sink,
            mode: Mode::default(),
            in_block_op: false,
            held_locks: Vec::new(),
        }
    }

    /// Current execution mode.
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.sink.len()
    }

    /// True if no events are recorded yet.
    pub fn is_empty(&self) -> bool {
        self.sink.len() == 0
    }

    /// Appends a mode switch if `mode` differs from the current mode.
    pub fn set_mode(&mut self, mode: Mode) {
        if self.mode != mode {
            self.mode = mode;
            self.sink.push(Event::SetMode { mode });
        }
    }

    /// Appends a basic-block execution.
    pub fn exec(&mut self, block: BlockId) {
        self.sink.push(Event::Exec { block });
    }

    /// Appends a scalar read.
    pub fn read(&mut self, addr: Addr, class: DataClass) {
        self.sink.push(Event::Read { addr, class });
    }

    /// Appends a scalar write.
    pub fn write(&mut self, addr: Addr, class: DataClass) {
        self.sink.push(Event::Write { addr, class });
    }

    /// Appends a read-modify-write (e.g. a counter increment).
    pub fn rmw(&mut self, addr: Addr, class: DataClass) {
        self.read(addr, class);
        self.write(addr, class);
    }

    /// Appends a software prefetch (normally inserted by the optimization
    /// passes, but exposed for hand-built traces and tests).
    pub fn prefetch(&mut self, addr: Addr, class: DataClass) {
        self.sink.push(Event::Prefetch { addr, class });
    }

    /// Appends a lock acquisition.
    ///
    /// # Panics
    ///
    /// Panics if this CPU already holds `lock`.
    pub fn lock_acquire(&mut self, lock: LockId, addr: Addr) {
        assert!(
            !self.held_locks.contains(&lock),
            "lock {lock:?} acquired while already held"
        );
        self.held_locks.push(lock);
        self.sink.push(Event::LockAcquire { lock, addr });
    }

    /// Appends a lock release.
    ///
    /// # Panics
    ///
    /// Panics if this CPU does not hold `lock`.
    pub fn lock_release(&mut self, lock: LockId, addr: Addr) {
        let pos = self
            .held_locks
            .iter()
            .position(|&l| l == lock)
            .unwrap_or_else(|| panic!("lock {lock:?} released while not held"));
        self.held_locks.remove(pos);
        self.sink.push(Event::LockRelease { lock, addr });
    }

    /// Appends a barrier arrival.
    pub fn barrier(&mut self, barrier: BarrierId, addr: Addr, participants: u8) {
        self.sink.push(Event::Barrier {
            barrier,
            addr,
            participants,
        });
    }

    /// Opens a block-copy bracket.
    ///
    /// # Panics
    ///
    /// Panics if a block operation is already open (they do not nest).
    pub fn begin_block_copy(
        &mut self,
        src: Addr,
        dst: Addr,
        len: u32,
        src_class: DataClass,
        dst_class: DataClass,
    ) {
        self.begin_block_op(BlockOp {
            src,
            dst,
            len,
            kind: crate::BlockKind::Copy,
            src_class,
            dst_class,
        });
    }

    /// Opens a block-zero bracket.
    ///
    /// # Panics
    ///
    /// Panics if a block operation is already open.
    pub fn begin_block_zero(&mut self, dst: Addr, len: u32, dst_class: DataClass) {
        self.begin_block_op(BlockOp {
            src: dst,
            dst,
            len,
            kind: crate::BlockKind::Zero,
            src_class: dst_class,
            dst_class,
        });
    }

    /// Opens an arbitrary block-operation bracket.
    ///
    /// # Panics
    ///
    /// Panics if a block operation is already open or `op.len` is zero.
    pub fn begin_block_op(&mut self, op: BlockOp) {
        assert!(!self.in_block_op, "block operations do not nest");
        assert!(op.len > 0, "zero-length block operation");
        self.in_block_op = true;
        self.sink.push(Event::BlockOpBegin { op });
    }

    /// Closes the open block-operation bracket.
    ///
    /// # Panics
    ///
    /// Panics if no block operation is open.
    pub fn end_block_op(&mut self) {
        assert!(self.in_block_op, "no open block operation");
        self.in_block_op = false;
        self.sink.push(Event::BlockOpEnd);
    }

    /// True while inside a block-operation bracket.
    pub fn in_block_op(&self) -> bool {
        self.in_block_op
    }

    /// Appends idle time.
    pub fn idle(&mut self, cycles: u32) {
        if cycles > 0 {
            self.sink.push(Event::Idle { cycles });
        }
    }

    /// Finalizes the stream.
    ///
    /// # Panics
    ///
    /// Panics if a block operation is still open or any lock is still held.
    pub fn finish(self) -> ChunkedStream {
        assert!(!self.in_block_op, "unterminated block operation");
        assert!(
            self.held_locks.is_empty(),
            "locks still held at end of stream: {:?}",
            self.held_locks
        );
        self.sink.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BlockKind;

    #[test]
    fn builder_elides_redundant_mode_switches() {
        let mut b = StreamBuilder::new();
        b.set_mode(Mode::User); // initial mode: no event
        b.set_mode(Mode::Os);
        b.set_mode(Mode::Os); // redundant: no event
        b.set_mode(Mode::User);
        let s = b.finish();
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn rmw_is_read_then_write() {
        let mut b = StreamBuilder::new();
        b.rmw(Addr(4), DataClass::InfreqCounter);
        let s: Vec<Event> = b.finish().iter().collect();
        assert!(s[0].is_read());
        assert!(s[1].is_write());
        assert_eq!(s.iter().filter(|e| e.is_read()).count(), 1);
        assert_eq!(s.iter().filter(|e| e.is_write()).count(), 1);
    }

    #[test]
    #[should_panic(expected = "do not nest")]
    fn nested_block_ops_panic() {
        let mut b = StreamBuilder::new();
        b.begin_block_zero(Addr(0), 16, DataClass::PageFrame);
        b.begin_block_zero(Addr(64), 16, DataClass::PageFrame);
    }

    #[test]
    #[should_panic(expected = "unterminated block operation")]
    fn unterminated_block_op_panics_on_finish() {
        let mut b = StreamBuilder::new();
        b.begin_block_zero(Addr(0), 16, DataClass::PageFrame);
        let _ = b.finish();
    }

    #[test]
    #[should_panic(expected = "already held")]
    fn double_acquire_panics() {
        let mut b = StreamBuilder::new();
        b.lock_acquire(LockId(1), Addr(64));
        b.lock_acquire(LockId(1), Addr(64));
    }

    #[test]
    #[should_panic(expected = "not held")]
    fn release_unheld_panics() {
        let mut b = StreamBuilder::new();
        b.lock_release(LockId(1), Addr(64));
    }

    #[test]
    #[should_panic(expected = "locks still held")]
    fn finish_with_held_lock_panics() {
        let mut b = StreamBuilder::new();
        b.lock_acquire(LockId(1), Addr(64));
        let _ = b.finish();
    }

    #[test]
    fn zero_block_op_sets_src_to_dst() {
        let mut b = StreamBuilder::new();
        b.begin_block_zero(Addr(0x3000), 128, DataClass::PageFrame);
        b.end_block_op();
        match b.finish().iter().next().unwrap() {
            Event::BlockOpBegin { op } => {
                assert_eq!(op.kind, BlockKind::Zero);
                assert_eq!(op.src, op.dst);
            }
            other => panic!("unexpected event {other:?}"),
        }
    }

    #[test]
    fn stream_collects_from_iterator() {
        let s = ChunkedStream::from_events(
            vec![Event::Idle { cycles: 3 }, Event::BlockOpEnd],
            crate::CHUNK_EVENTS,
        );
        assert_eq!(s.len(), 2);
        let s2 = ChunkedStream::from_events([Event::Idle { cycles: 1 }], crate::CHUNK_EVENTS);
        assert_eq!(s2.len(), 1);
        assert!(!s2.is_empty());
    }
}
