//! Block-operation handling (§4): the per-scheme read/write paths and the
//! DMA-like transfer engine of `Blk_Dma`.

use crate::error::{SimError, SimErrorKind};
use crate::machine::{ActiveOp, Bucket, Machine};
use crate::spec::Spec;
use crate::{BlockOpScheme, BusOp, LineState};
use oscache_trace::{Addr, BlockKind, BlockOp, DataClass, Event, LineAddr, PAGE_SIZE};

impl Machine<'_> {
    /// Processes `BlockOpBegin`: records the Table 3 probes, arms
    /// scheme-specific state, and — for `Blk_Dma` — runs the whole transfer
    /// on the bus and skips the bracketed references (failing with a typed
    /// error if the bracket is malformed).
    pub(crate) fn begin_block_op<S: Spec>(
        &mut self,
        i: usize,
        op: BlockOp,
    ) -> Result<(), SimError> {
        self.probe_block_op::<S>(i, &op);
        self.cpus[i].block = Some(ActiveOp::new(op));
        match self.cfg.block_scheme {
            BlockOpScheme::Pref => self.pref_prolog::<S>(i, &op),
            BlockOpScheme::ByPref if op.kind == BlockKind::Copy => {
                let n = self.cfg.prefetch_buf_lines as u32;
                for _ in 0..n {
                    self.pbuf_fetch_next(i);
                }
            }
            BlockOpScheme::Dma => {
                self.run_dma::<S>(i, &op);
                self.skip_to_block_end(i)?;
                self.cpus[i].block = None;
                return Ok(());
            }
            _ => {}
        }
        self.cpus[i].cursor += 1;
        Ok(())
    }

    /// Processes `BlockOpEnd`: flushes bypass registers and clears state.
    pub(crate) fn end_block_op<S: Spec>(&mut self, i: usize) {
        if self.cfg.block_scheme == BlockOpScheme::Bypass {
            self.flush_dst_reg::<S>(i);
        }
        self.cpus[i].pbuf.clear();
        self.cpus[i].block = None;
    }

    /// Table 3 rows 1–6: cache-state probes and the size histogram.
    fn probe_block_op<S: Spec>(&mut self, i: usize, op: &BlockOp) {
        if !self.s_record::<S>() {
            // Pure statistics over read-only probes (`contains`/`state`
            // never touch LRU) — skip the whole src/dst scan.
            return;
        }
        let bucket = if op.len == PAGE_SIZE {
            0
        } else if op.len >= 1024 {
            1
        } else {
            2
        };
        // Probe source residency in the L1D (copies only).
        let mut src_lines = 0u64;
        let mut src_cached = 0u64;
        if op.kind == BlockKind::Copy {
            let l1 = self.cfg.l1d.line;
            let mut a = op.src.line(l1).0;
            while a < op.src.0 + op.len {
                src_lines += 1;
                if self.cpus[i].l1d.contains(LineAddr(a)) {
                    src_cached += 1;
                }
                a += l1;
            }
        }
        // Probe destination state in the local L2.
        let mut dst_lines = 0u64;
        let mut dst_owned = 0u64;
        let mut dst_shared = 0u64;
        let l2 = self.cfg.l2.line;
        let mut a = op.dst.line(l2).0;
        while a < op.dst.0 + op.len {
            dst_lines += 1;
            match self.cpus[i].l2.state(LineAddr(a)) {
                LineState::Modified | LineState::Exclusive => dst_owned += 1,
                LineState::Shared => dst_shared += 1,
                LineState::Invalid => {}
            }
            a += l2;
        }
        let st = &mut self.cpus[i].stats;
        st.blk_ops += 1;
        st.blk_size_buckets[bucket] += 1;
        st.blk_src_lines += src_lines;
        st.blk_src_lines_cached += src_cached;
        st.blk_dst_lines += dst_lines;
        st.blk_dst_l2_owned += dst_owned;
        st.blk_dst_l2_shared += dst_shared;
    }

    // ---- Blk_Pref ------------------------------------------------------------

    /// Software-pipelining prolog: prefetch the first `distance` source
    /// lines. These are the prefetches that cannot be fully hidden ("not
    /// issued early enough", §4.2).
    fn pref_prolog<S: Spec>(&mut self, i: usize, op: &BlockOp) {
        if op.kind != BlockKind::Copy {
            return;
        }
        let l1 = self.cfg.l1d.line;
        for k in 0..self.cfg.prefetch_distance {
            let a = op.src.0 + k * l1;
            if a >= op.src.0 + op.len {
                break;
            }
            self.advance::<S>(i, 1, Bucket::Exec); // the prefetch instruction
            self.issue_prefetch::<S>(i, Addr(a), op.src_class);
        }
    }

    /// Steady-state look-ahead: when the copy loop enters a new source
    /// line, prefetch the line `distance` lines ahead.
    pub(crate) fn pref_lookahead<S: Spec>(&mut self, i: usize, addr: Addr, class: DataClass) {
        let l1 = self.cfg.l1d.line;
        let line1 = addr.line(l1);
        let Some(active) = self.cpus[i].block.as_mut() else {
            return;
        };
        if active.op.kind != BlockKind::Copy || active.last_pref_trigger == Some(line1) {
            return;
        }
        active.last_pref_trigger = Some(line1);
        let op = active.op;
        let ahead = line1.0 + self.cfg.prefetch_distance * l1;
        if ahead >= op.src.0 && ahead < op.src.0 + op.len {
            self.advance::<S>(i, 1, Bucket::Exec);
            self.issue_prefetch::<S>(i, Addr(ahead), class);
        }
    }

    // ---- Blk_Bypass ------------------------------------------------------------

    /// Bypass source read: line registers in parallel with the caches; a
    /// cache access is performed only when the word is already cached.
    pub(crate) fn bypass_read<S: Spec>(&mut self, i: usize, addr: Addr, class: DataClass) {
        // Callers dispatch here only inside a block op; fall back to the
        // plain path rather than panic if that ever changes.
        let Some(active) = self.cpus[i].block else {
            return self.demand_read::<S>(i, addr, class);
        };
        if self.s_record::<S>() {
            let mode = self.cpus[i].mode;
            self.cpus[i].stats.dreads.add(mode, 1);
        }
        let line1 = addr.line(self.cfg.l1d.line);
        let line2 = addr.line(self.cfg.l2.line);

        if active.src_reg == Some(line1) {
            return; // register hit, as fast as the primary cache
        }
        if self.cpus[i].l1d.contains(line1) {
            return; // already cached: access the cache
        }
        let pc = self.peek_classify::<S>(i, line1, line2, class);
        let now = self.cpus[i].time;
        let stall = if self.cpus[i].l2.contains(line2) {
            // Secondary-cache access, but no L1 fill (bypass).
            self.cfg.timing.l2_hit - 1
        } else {
            // Blocking fetch into the source line register.
            let grant = self
                .bus
                .acquire(now, self.cfg.timing.line_transfer, BusOp::ReadLine);
            self.snoop_read(i, line2);
            if self.s_record::<S>() {
                self.history.mark(i, line1);
            }
            (grant - now) + self.cfg.timing.mem - 1
        };
        if let Some(a) = self.cpus[i].block.as_mut() {
            a.src_reg = Some(line1);
        }
        self.count_miss::<S>(i, pc, stall);
        self.advance::<S>(i, stall, Bucket::DRead);
    }

    /// Bypass destination write: words accumulate in a line register that
    /// is written to the bus as a full line when the loop moves on.
    pub(crate) fn bypass_write<S: Spec>(&mut self, i: usize, addr: Addr, class: DataClass) {
        let line1 = addr.line(self.cfg.l1d.line);
        let line2 = addr.line(self.cfg.l2.line);
        // Already cached: perform a normal cache access.
        if self.cpus[i].l1d.contains(line1) || self.cpus[i].l2.contains(line2) {
            self.demand_write::<S>(i, addr, class);
            return;
        }
        let Some(active) = self.cpus[i].block else {
            return self.demand_write::<S>(i, addr, class);
        };
        if self.s_record::<S>() {
            let mode = self.cpus[i].mode;
            self.cpus[i].stats.dwrites.add(mode, 1);
        }
        if active.dst_reg != Some(line1) {
            self.flush_dst_reg::<S>(i);
            if let Some(a) = self.cpus[i].block.as_mut() {
                a.dst_reg = Some(line1);
            }
        }
        if self.s_record::<S>() {
            self.history.mark(i, line1);
        }
    }

    /// Writes the full destination line register to memory over the bus.
    pub(crate) fn flush_dst_reg<S: Spec>(&mut self, i: usize) {
        let Some(active) = self.cpus[i].block.as_mut() else {
            return;
        };
        let Some(line1) = active.dst_reg.take() else {
            return;
        };
        let line2 = LineAddr(line1.0 & !(self.cfg.l2.line - 1));
        let now = self.cpus[i].time;
        let stall = self.cpus[i].wb2.stall_for_slot(now);
        self.advance::<S>(i, stall, Bucket::DWrite);
        // The stall freed a slot at the new time; reclaim it before pushing.
        let now = self.cpus[i].time;
        self.cpus[i].wb2.drain(now);
        let t = now.max(self.cpus[i].wb2.last_completion());
        // A 16-byte L1 line moves in half the occupancy of a 32-byte line.
        let occ = (self.cfg.timing.line_transfer * u64::from(self.cfg.l1d.line)
            / u64::from(self.cfg.l2.line))
        .max(1);
        let grant = self.bus.acquire(t, occ, BusOp::LineWrite);
        // Memory now holds the newest data: remote copies are stale.
        self.snoop_write::<S>(i, line2);
        self.cpus[i].wb2.push(line1.0, grant + occ);
    }

    // ---- Blk_ByPref ------------------------------------------------------------

    /// Streams the next source line into the 8-line prefetch buffer.
    fn pbuf_fetch_next(&mut self, i: usize) {
        let Some(active) = self.cpus[i].block.as_mut() else {
            return;
        };
        let op = active.op;
        let l1 = self.cfg.l1d.line;
        // Find the next line offset not already cached (cached lines are
        // read from the caches, not the buffer).
        loop {
            let off = {
                let Some(a) = self.cpus[i].block.as_mut() else {
                    return;
                };
                let off = a.next_pbuf_off;
                if off >= op.len {
                    return;
                }
                a.next_pbuf_off += l1;
                off
            };
            let addr = Addr(op.src.0 + off);
            let line1 = addr.line(l1);
            let line2 = addr.line(self.cfg.l2.line);
            if self.cpus[i].l1d.contains(line1) || self.cpus[i].l2.contains(line2) {
                continue; // cached: skip, keep scanning
            }
            let now = self.cpus[i].time;
            let grant = self
                .bus
                .acquire(now, self.cfg.timing.line_transfer, BusOp::ReadLine);
            self.snoop_read(i, line2);
            self.cpus[i].pbuf.insert(line1, grant + self.cfg.timing.mem);
            return;
        }
    }

    /// `Blk_ByPref` source read: prefetch buffer first, then caches, then a
    /// blocking register fetch.
    pub(crate) fn bypref_read<S: Spec>(&mut self, i: usize, addr: Addr, class: DataClass) {
        let Some(active) = self.cpus[i].block else {
            return self.demand_read::<S>(i, addr, class);
        };
        if self.s_record::<S>() {
            let mode = self.cpus[i].mode;
            self.cpus[i].stats.dreads.add(mode, 1);
        }
        let line1 = addr.line(self.cfg.l1d.line);
        let line2 = addr.line(self.cfg.l2.line);

        if active.src_reg == Some(line1) {
            return;
        }
        if self.cpus[i].l1d.contains(line1) {
            return;
        }
        if let Some(ready) = self.cpus[i].pbuf.lookup(line1) {
            let now = self.cpus[i].time;
            if let Some(a) = self.cpus[i].block.as_mut() {
                a.src_reg = Some(line1);
            }
            if self.s_record::<S>() {
                self.history.mark(i, line1);
            }
            if ready <= now {
                if self.s_record::<S>() {
                    self.cpus[i].stats.prefetch_full_hits += 1;
                }
            } else {
                // Not issued early enough: a partially-hidden miss.
                let pc = self.peek_classify::<S>(i, line1, line2, class);
                self.count_miss::<S>(i, pc, ready - now);
                if self.s_record::<S>() {
                    self.cpus[i].stats.prefetch_partial_hits += 1;
                }
                self.advance::<S>(i, ready - now, Bucket::Pref);
            }
            self.pbuf_fetch_next(i);
            return;
        }
        if self.cpus[i].l2.contains(line2) {
            let pc = self.peek_classify::<S>(i, line1, line2, class);
            let stall = self.cfg.timing.l2_hit - 1;
            if let Some(a) = self.cpus[i].block.as_mut() {
                a.src_reg = Some(line1);
            }
            self.count_miss::<S>(i, pc, stall);
            self.advance::<S>(i, stall, Bucket::DRead);
            return;
        }
        // Fallback blocking fetch (line escaped the streaming window).
        let pc = self.peek_classify::<S>(i, line1, line2, class);
        let now = self.cpus[i].time;
        let grant = self
            .bus
            .acquire(now, self.cfg.timing.line_transfer, BusOp::ReadLine);
        self.snoop_read(i, line2);
        if self.s_record::<S>() {
            self.history.mark(i, line1);
        }
        if let Some(a) = self.cpus[i].block.as_mut() {
            a.src_reg = Some(line1);
        }
        let stall = (grant - now) + self.cfg.timing.mem - 1;
        self.count_miss::<S>(i, pc, stall);
        self.advance::<S>(i, stall, Bucket::DRead);
    }

    // ---- Blk_Dma ------------------------------------------------------------

    /// Runs the whole block operation as one bus-held DMA transfer (§4.2):
    /// 19 cycles of startup, 8 bytes per 2 bus cycles, plus a penalty per
    /// snooping-cache intervention; the processor stalls for the duration
    /// and the caches are bypassed but kept coherent.
    fn run_dma<S: Spec>(&mut self, i: usize, op: &BlockOp) {
        let timing = self.cfg.timing;
        let l2line = self.cfg.l2.line;
        let l1line = self.cfg.l1d.line;
        let mut penalties = 0u64;

        // Source lines: dirty remote copies are read on the fly.
        if op.kind == BlockKind::Copy {
            let mut a = op.src.line(l2line).0;
            while a < op.src.0 + op.len {
                let l2a = LineAddr(a);
                for j in 0..self.cpus.len() {
                    if j != i && self.cpus[j].l2.state(l2a).is_owned() {
                        self.cpus[j].l2.set_state(l2a, LineState::Shared);
                        penalties += 1;
                    }
                }
                // The originator's caches do not receive the source data;
                // later reads of it are *reuses* (outside the op).
                if self.s_record::<S>() {
                    let mut b = a;
                    while b < a + l2line {
                        let l1a = LineAddr(b);
                        if !self.cpus[i].l1d.contains(l1a) {
                            self.history.mark(i, l1a);
                        }
                        b += l1line;
                    }
                }
                a += l2line;
            }
        }

        // Destination lines: every cached copy is updated in place by
        // snooping; uncached destinations stay uncached (bypass).
        let mut a = op.dst.line(l2line).0;
        while a < op.dst.0 + op.len {
            let l2a = LineAddr(a);
            let mut cached_here = false;
            for j in 0..self.cpus.len() {
                if self.cpus[j].l2.contains(l2a) {
                    penalties += 1;
                    // Memory receives the data too: all copies become Shared.
                    if self.cpus[j].l2.state(l2a).is_owned() {
                        self.cpus[j].l2.set_state(l2a, LineState::Shared);
                    }
                    if j == i {
                        cached_here = true;
                    }
                }
            }
            if !cached_here && self.s_record::<S>() {
                let mut b = a;
                while b < a + l2line {
                    let l1a = LineAddr(b);
                    if !self.cpus[i].l1d.contains(l1a) {
                        self.history.mark(i, l1a);
                    }
                    b += l1line;
                }
            }
            a += l2line;
        }

        let words8 = u64::from(op.len.div_ceil(8));
        let transfer = words8 * timing.dma_bus_cycles_per_8b * timing.cpu_per_bus_cycle;
        let penalty_cycles =
            penalties * timing.dma_snoop_penalty_bus_cycles * timing.cpu_per_bus_cycle;
        let occ = timing.dma_startup + transfer + penalty_cycles;
        let now = self.cpus[i].time;
        let grant = self.bus.acquire(now, occ, BusOp::DmaTransfer);
        // Setup instructions (the scheme "requires very few instructions").
        self.advance::<S>(i, 10, Bucket::Exec);
        // The originating processor is stalled for the whole transfer; the
        // paper assigns this stall to D Read Miss (§4.2).
        let done = grant + occ;
        let stall = done.saturating_sub(self.cpus[i].time);
        self.advance::<S>(i, stall, Bucket::DRead);
    }

    /// Skips the bracketed word references of a DMA-executed block op.
    ///
    /// Only plain references may appear between `BlockOpBegin` and
    /// `BlockOpEnd`; anything else (or a stream that ends inside the
    /// bracket) is reported as a [`SimErrorKind::MalformedBlockOp`] naming
    /// the cycle, CPU, and offending event.
    pub(crate) fn skip_to_block_end(&mut self, i: usize) -> Result<(), SimError> {
        let n = self.stream_len_of(i);
        let mut k = self.cpus[i].cursor + 1;
        loop {
            let e = if k < n {
                Some(self.fetch_event(i, k))
            } else {
                None
            };
            match e {
                Some(Event::BlockOpEnd) => {
                    self.cpus[i].cursor = k + 1;
                    return Ok(());
                }
                Some(Event::Read { .. })
                | Some(Event::Write { .. })
                | Some(Event::Exec { .. })
                | Some(Event::Prefetch { .. }) => k += 1,
                other => {
                    let event = match other {
                        Some(e) => format!("{e:?}"),
                        None => "end of stream".to_string(),
                    };
                    return Err(SimError {
                        cycle: self.cpus[i].time,
                        cpu: Some(i),
                        line: None,
                        kind: SimErrorKind::MalformedBlockOp { event },
                    });
                }
            }
        }
    }
}
