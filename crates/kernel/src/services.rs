//! OS service generators: each emits the reference stream of one kernel
//! activity into a per-CPU [`StreamBuilder`].
//!
//! The services cover the activities the paper's workloads exercise (§2.3):
//! page-fault handling, process scheduling and gang scheduling,
//! cross-processor interrupts, fork/exec (block copies and zeroes), system
//! calls, timer/accounting, and file I/O — each touching the kernel data
//! structures of [`crate::KernelLayout`] with the access patterns the paper
//! attributes to them.

use crate::{KernelCode, KernelLayout, KernelLock};
use oscache_trace::rng::Rng;
use oscache_trace::{Addr, DataClass, LockId, StreamBuilder, WORD_SIZE};

/// Word stride (bytes) used by block-operation transfer loops: the machine
/// moves 8 bytes per load/store pair (double-word moves).
pub const BLOCK_WORD: u32 = 8;

/// How a page fault obtains its page.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fill {
    /// Demand-zero: the frame is block-zeroed.
    Zero,
    /// Page-in: the frame is block-copied from a buffer-cache buffer.
    From(Addr),
    /// The page was already resident (soft fault): no block operation.
    Soft,
}

/// The synthetic kernel: layout plus code, with one generator method per
/// service.
#[derive(Clone, Debug)]
pub struct Kernel {
    /// Data-structure placement.
    pub layout: KernelLayout,
    /// Code placement.
    pub code: KernelCode,
    /// Multiplier on the bulk data work of each service — workloads differ
    /// in how heavyweight their dominant kernel paths are.
    pub work_scale: f64,
    /// Probability that a system call chases cold, scattered kernel
    /// structures (inode cache, tty state, other processes' entries) —
    /// high for workloads executing "a variety of system calls" (§2.3's
    /// Shell), low for compute workloads.
    pub misc_lookup: f64,
}

impl Kernel {
    /// Builds the kernel, registering its code in `code`.
    pub fn new(code: &mut oscache_trace::CodeLayout) -> Self {
        Self::for_cpus(code, crate::N_CPUS)
    }

    /// Builds a kernel configured for `n_cpus` processors.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= n_cpus <= 8` (see [`KernelLayout::for_cpus`]).
    pub fn for_cpus(code: &mut oscache_trace::CodeLayout, n_cpus: usize) -> Self {
        let layout = KernelLayout::for_cpus(n_cpus);
        let kcode = KernelCode::new(code, layout.text_base);
        Kernel {
            layout,
            code: kcode,
            work_scale: 1.0,
            misc_lookup: 0.3,
        }
    }

    /// [`LockId`] of a well-known kernel lock.
    pub fn lock_id(&self, lock: KernelLock) -> LockId {
        LockId(lock as u16)
    }

    // ---- small helpers ---------------------------------------------------

    /// A few reads/writes on this CPU's kernel stack.
    fn kstack_touch(&self, b: &mut StreamBuilder, cpu: usize, reads: u32, writes: u32) {
        let base = self.layout.kstack_addr(cpu);
        for k in 0..reads {
            b.read(base.offset((k % 64) * WORD_SIZE), DataClass::KernelStack);
        }
        for k in 0..writes {
            b.write(base.offset((k % 64) * WORD_SIZE), DataClass::KernelStack);
        }
    }

    /// Bulk kernel data work on this CPU's resident working area: the
    /// register-save areas, argument structures, pv lists, and lookup
    /// tables that real kernel paths walk. These references mostly hit.
    fn kernel_work(
        &self,
        b: &mut StreamBuilder,
        rng: &mut impl Rng,
        cpu: usize,
        reads: u32,
        writes: u32,
    ) {
        let reads = (f64::from(reads) * self.work_scale).round() as u32;
        let writes = (f64::from(writes) * self.work_scale).round() as u32;
        let base = self.layout.scratch_addr(cpu);
        // Skewed reuse: most of the work lands on the hottest KB (current
        // frames and arguments), the rest across the full working area.
        let pick = |rng: &mut dyn oscache_trace::rng::RngCore| {
            if rng.gen_bool(0.8) {
                rng.gen_range(0..256u32) * 4
            } else {
                rng.gen_range(0..1024u32) * 4
            }
        };
        let total = reads + writes;
        let mut emitted = 0u32;
        let mut w = 0u32;
        let mut r = 0u32;
        let mut k = 0usize;
        while r + w < total {
            // Interleave instruction work with the data references.
            if emitted.is_multiple_of(6) {
                self.code.kwork_seq.emit_block(b, k);
                k += 1;
            }
            if r < reads && (w >= writes || (r + w) % 4 != 3) {
                b.read(base.offset(pick(rng)), DataClass::KernelOther);
                r += 1;
            } else {
                b.write(base.offset(pick(rng)), DataClass::KernelOther);
                w += 1;
            }
            emitted += 1;
        }
    }

    /// Read all event counters (the pager's periodic aggregate use, §5.1).
    pub fn read_all_counters(&self, b: &mut StreamBuilder) {
        for k in 0..crate::N_COUNTERS {
            b.read(self.layout.counter_addr(k), DataClass::InfreqCounter);
        }
    }

    /// Picks a buffer-cache buffer: file access has strong temporal
    /// locality, so most hits land in a small hot set.
    fn pick_buffer(&self, rng: &mut impl Rng) -> u32 {
        if rng.gen_bool(0.8) {
            rng.gen_range(0..3u32)
        } else {
            rng.gen_range(0..crate::N_BUFFERS)
        }
    }

    // ---- block operations -------------------------------------------------

    /// Emits a bracketed block copy with its transfer loop.
    pub fn block_copy(
        &self,
        b: &mut StreamBuilder,
        src: Addr,
        dst: Addr,
        len: u32,
        src_class: DataClass,
        dst_class: DataClass,
    ) {
        b.begin_block_copy(src, dst, len, src_class, dst_class);
        let mut off = 0;
        while off < len {
            self.code.bcopy_loop.emit_block(b, 0);
            let chunk = (len - off).min(32);
            let mut w = 0;
            while w < chunk {
                b.read(src.offset(off + w), src_class);
                b.write(dst.offset(off + w), dst_class);
                w += BLOCK_WORD;
            }
            off += chunk;
        }
        b.end_block_op();
    }

    /// Emits a bracketed block zero (page zeroing) with its store loop.
    pub fn block_zero(&self, b: &mut StreamBuilder, dst: Addr, len: u32, dst_class: DataClass) {
        b.begin_block_zero(dst, len, dst_class);
        let mut off = 0;
        while off < len {
            self.code.bzero_loop.emit_block(b, 0);
            let chunk = (len - off).min(32);
            let mut w = 0;
            while w < chunk {
                b.write(dst.offset(off + w), dst_class);
                w += BLOCK_WORD;
            }
            off += chunk;
        }
        b.end_block_op();
    }

    // ---- services ----------------------------------------------------------

    /// System-call entry: trap sequence, current-process and
    /// file-descriptor-table accesses, dispatch-table read, kernel-stack
    /// frame setup. The caller emits the service body afterwards.
    pub fn syscall_entry(&self, b: &mut StreamBuilder, rng: &mut impl Rng, cpu: usize, pid: u32) {
        self.code.trap_entry.emit(b);
        self.kstack_touch(b, cpu, 6, 6);
        // Current process state: u-area reads and a few writes.
        let proc = self.layout.proc_addr(pid);
        for k in 0..6u32 {
            b.read(proc.offset(k * WORD_SIZE), DataClass::ProcTable);
        }
        b.write(proc.offset(6 * WORD_SIZE), DataClass::ProcTable);
        // Most calls hit a handful of hot system-call numbers.
        let sysno = if rng.gen_bool(0.85) {
            rng.gen_range(0..16u32)
        } else {
            rng.gen_range(16..256u32)
        };
        b.read(
            self.layout.syscall_table_addr().offset(sysno * 4),
            DataClass::SyscallTable,
        );
        self.code.syscall_dispatch.emit(b);
        // Argument fetch and descriptor-table lookups.
        for k in 0..4u32 {
            b.read(proc.offset(128 + k * WORD_SIZE), DataClass::ProcTable);
        }
        // Some calls chase cold structures (inode cache, tty, other
        // processes' entries) — diffuse conflict misses (§6).
        if rng.gen_bool(self.misc_lookup) {
            for _ in 0..8 {
                let p = rng.gen_range(0..crate::N_PROCS as u32);
                b.read(
                    self.layout
                        .proc_addr(p)
                        .offset(rng.gen_range(0..32u32) * 16),
                    DataClass::ProcTable,
                );
            }
        }
        // The service body's data work.
        self.kernel_work(b, rng, cpu, 300, 100);
        b.rmw(self.layout.counter_addr(3), DataClass::InfreqCounter); // v_syscall
    }

    /// Page-fault handling: PTE scan of the faulting region (sequential —
    /// faults walk a process's address space), free-list allocation under
    /// the `freemem` lock, PTE update, counter bumps, and the fill
    /// operation. `pte_base` is the caller's per-process fault cursor.
    #[allow(clippy::too_many_arguments)]
    pub fn page_fault(
        &self,
        b: &mut StreamBuilder,
        rng: &mut impl Rng,
        cpu: usize,
        pid: u32,
        pte_base: u32,
        frame: u32,
        fill: Fill,
    ) {
        self.code.pgfault_entry.emit(b);
        self.kstack_touch(b, cpu, 4, 4);
        // Proc/vm-map state of the faulting process.
        let proc = self.layout.proc_addr(pid);
        for k in 0..4u32 {
            b.read(proc.offset(64 + k * WORD_SIZE), DataClass::ProcTable);
        }
        // Scan the faulting region's PTEs, sequentially.
        let base = pte_base % (crate::PTES_PER_PROC - 16);
        for k in 0..rng.gen_range(4..10u32) {
            self.code.pte_scan_loop.emit_block(b, 0);
            b.read(self.layout.pte_addr(pid, base + k), DataClass::PageTable);
        }
        // Allocate a frame from the free list (the list's next nodes are
        // the next frames to be handed out).
        let lid = self.lock_id(KernelLock::Freemem);
        b.lock_acquire(lid, self.layout.lock_addr(KernelLock::Freemem));
        b.read(self.layout.freelist_head_addr(), DataClass::Freelist);
        for k in 0..rng.gen_range(1..3u32) {
            self.code.freelist_loop.emit_block(b, 0);
            b.read(self.layout.frame_addr(frame + k), DataClass::KernelOther);
        }
        b.rmw(self.layout.freelist_size_addr(), DataClass::Freelist);
        b.write(self.layout.freelist_head_addr(), DataClass::Freelist);
        b.lock_release(lid, self.layout.lock_addr(KernelLock::Freemem));
        // Install the mapping and maintain the vm bookkeeping.
        b.write(self.layout.pte_addr(pid, base), DataClass::PageTable);
        self.kernel_work(b, rng, cpu, 450, 150);
        b.rmw(self.layout.counter_addr(4), DataClass::InfreqCounter); // v_pgfault
        match fill {
            Fill::Zero => {
                self.block_zero(
                    b,
                    self.layout.frame_addr(frame),
                    oscache_trace::PAGE_SIZE,
                    DataClass::PageFrame,
                );
                b.rmw(self.layout.counter_addr(5), DataClass::InfreqCounter); // v_pgzero
            }
            Fill::From(src) => {
                self.block_copy(
                    b,
                    src,
                    self.layout.frame_addr(frame),
                    oscache_trace::PAGE_SIZE,
                    DataClass::BufferCache,
                    DataClass::PageFrame,
                );
            }
            Fill::Soft => {}
        }
    }

    /// `fork`: process-table copy under the proc-table lock, PTE copy loop,
    /// then page-sized block copies of `pages` address-space pages.
    ///
    /// `src_frames[k]` is copied to `dst_frames[k]`; chaining fork-to-fork
    /// (child frames becoming the next fork's source) reproduces the §4.1.3
    /// pattern where "the destination block of a first block operation is
    /// often the source block of a second".
    #[allow(clippy::too_many_arguments)]
    pub fn fork(
        &self,
        b: &mut StreamBuilder,
        rng: &mut impl Rng,
        cpu: usize,
        parent: u32,
        child: u32,
        src_frames: &[u32],
        dst_frames: &[u32],
    ) {
        assert_eq!(src_frames.len(), dst_frames.len());
        self.code.fork_entry.emit(b);
        self.kstack_touch(b, cpu, 3, 5);
        let lid = self.lock_id(KernelLock::ProcTable);
        b.lock_acquire(lid, self.layout.lock_addr(KernelLock::ProcTable));
        for k in 0..10u32 {
            b.read(
                self.layout.proc_addr(parent).offset(k * WORD_SIZE),
                DataClass::ProcTable,
            );
            b.write(
                self.layout.proc_addr(child).offset(k * WORD_SIZE),
                DataClass::ProcTable,
            );
        }
        b.lock_release(lid, self.layout.lock_addr(KernelLock::ProcTable));
        // Copy the page tables.
        let n_ptes = rng.gen_range(24..64u32);
        for k in 0..n_ptes {
            self.code.pte_copy_loop.emit_block(b, 0);
            b.read(self.layout.pte_addr(parent, k), DataClass::PageTable);
            b.write(self.layout.pte_addr(child, k), DataClass::PageTable);
        }
        // Copy the writable pages.
        for (s, d) in src_frames.iter().zip(dst_frames) {
            self.block_copy(
                b,
                self.layout.frame_addr(*s),
                self.layout.frame_addr(*d),
                oscache_trace::PAGE_SIZE,
                DataClass::PageFrame,
                DataClass::PageFrame,
            );
        }
        self.kernel_work(b, rng, cpu, 500, 170);
        b.rmw(self.layout.counter_addr(7), DataClass::InfreqCounter); // v_fork
    }

    /// `fork` that copies `npages` of the parent's user address space
    /// (starting at its data segment — the pages user code actually
    /// touches) into the child's address space.
    #[allow(clippy::too_many_arguments)]
    pub fn fork_pages(
        &self,
        b: &mut StreamBuilder,
        rng: &mut impl Rng,
        cpu: usize,
        parent: u32,
        child: u32,
        parent_base: Addr,
        child_base: Addr,
        npages: u32,
    ) {
        self.code.fork_entry.emit(b);
        self.kstack_touch(b, cpu, 3, 5);
        let lid = self.lock_id(KernelLock::ProcTable);
        b.lock_acquire(lid, self.layout.lock_addr(KernelLock::ProcTable));
        for k in 0..10u32 {
            b.read(
                self.layout.proc_addr(parent).offset(k * WORD_SIZE),
                DataClass::ProcTable,
            );
            b.write(
                self.layout.proc_addr(child).offset(k * WORD_SIZE),
                DataClass::ProcTable,
            );
        }
        b.lock_release(lid, self.layout.lock_addr(KernelLock::ProcTable));
        let n_ptes = rng.gen_range(24..64u32);
        for k in 0..n_ptes {
            self.code.pte_copy_loop.emit_block(b, 0);
            b.read(self.layout.pte_addr(parent, k), DataClass::PageTable);
            b.write(self.layout.pte_addr(child, k), DataClass::PageTable);
        }
        for p in 0..npages {
            self.block_copy(
                b,
                parent_base.offset(p * oscache_trace::PAGE_SIZE),
                child_base.offset(p * oscache_trace::PAGE_SIZE),
                oscache_trace::PAGE_SIZE,
                DataClass::UserData,
                DataClass::UserData,
            );
        }
        self.kernel_work(b, rng, cpu, 500, 170);
        b.rmw(self.layout.counter_addr(7), DataClass::InfreqCounter); // v_fork
    }

    /// `exec`: PTE initialization loop, bss zeroing, text/data page-in
    /// copies from the buffer cache.
    #[allow(clippy::too_many_arguments)]
    pub fn exec_load(
        &self,
        b: &mut StreamBuilder,
        rng: &mut impl Rng,
        cpu: usize,
        pid: u32,
        text_pages: u32,
        zero_pages: u32,
        frame_base: u32,
    ) {
        self.code.exec_entry.emit(b);
        self.kstack_touch(b, cpu, 3, 4);
        let n_ptes = rng.gen_range(32..96u32);
        for k in 0..n_ptes {
            self.code.pte_init_loop.emit_block(b, 0);
            b.write(self.layout.pte_addr(pid, k), DataClass::PageTable);
        }
        for p in 0..text_pages {
            let buf = self.layout.buffer_addr(self.pick_buffer(rng));
            self.block_copy(
                b,
                buf,
                self.layout.frame_addr(frame_base + p),
                oscache_trace::PAGE_SIZE,
                DataClass::BufferCache,
                DataClass::PageFrame,
            );
        }
        for p in 0..zero_pages {
            self.block_zero(
                b,
                self.layout.frame_addr(frame_base + text_pages + p),
                oscache_trace::PAGE_SIZE,
                DataClass::PageFrame,
            );
        }
        self.kernel_work(b, rng, cpu, 500, 170);
        b.rmw(self.layout.counter_addr(8), DataClass::InfreqCounter); // v_exec
    }

    /// Context switch: save sequence, scheduler pick under the `sched`
    /// lock, run-queue manipulation, resume sequence.
    pub fn context_switch(
        &self,
        b: &mut StreamBuilder,
        rng: &mut impl Rng,
        cpu: usize,
        to_pid: u32,
    ) {
        self.code.ctx_save.emit(b);
        self.kstack_touch(b, cpu, 4, 10);
        let lid = self.lock_id(KernelLock::Sched);
        b.lock_acquire(lid, self.layout.lock_addr(KernelLock::Sched));
        self.code.sched_pick.emit(b);
        b.read(self.layout.runq_head_addr(), DataClass::RunQueue);
        // The run queue is short: its first few nodes stay cache-resident.
        for _ in 0..rng.gen_range(1..4u32) {
            let node = rng.gen_range(0..8u32);
            b.read(
                self.layout.runq_nodes.offset(node * 64),
                DataClass::RunQueue,
            );
        }
        b.write(self.layout.runq_head_addr(), DataClass::RunQueue);
        b.lock_release(lid, self.layout.lock_addr(KernelLock::Sched));
        // Resource-table pointer: read when checking the preempted process,
        // written later when the resource is re-assigned (frequently-shared
        // with partial producer-consumer behaviour, §5).
        let r = rng.gen_range(0..crate::N_RESOURCES);
        b.read(self.layout.resource_addr(r), DataClass::FreqShared);
        self.code.resume_proc.emit(b);
        b.write(self.layout.resource_addr(r), DataClass::FreqShared);
        // Restore the incoming process: u-area, register save area, map.
        for k in 0..12u32 {
            b.read(
                self.layout.proc_addr(to_pid).offset(k * WORD_SIZE),
                DataClass::ProcTable,
            );
        }
        for k in 0..3u32 {
            b.write(
                self.layout.proc_addr(to_pid).offset((12 + k) * WORD_SIZE),
                DataClass::ProcTable,
            );
        }
        b.read(self.layout.pte_addr(to_pid, 0), DataClass::PageTable);
        // Falsely-shared per-CPU scheduling info.
        b.write(self.layout.sched_info_addr(cpu), DataClass::KernelOther);
        self.kernel_work(b, rng, cpu, 380, 120);
        b.rmw(self.layout.counter_addr(1), DataClass::InfreqCounter); // v_swtch
    }

    /// Sender side of a cross-processor interrupt.
    pub fn xproc_send(&self, b: &mut StreamBuilder, target_cpu: usize) {
        b.write(self.layout.cpievents_addr(target_cpu), DataClass::CpiEvents);
    }

    /// Receiver side of a cross-processor interrupt.
    pub fn xproc_handle(&self, b: &mut StreamBuilder, cpu: usize) {
        self.code.cpi_handler.emit(b);
        b.read(self.layout.cpievents_addr(cpu), DataClass::CpiEvents);
        b.rmw(self.layout.counter_addr(0), DataClass::InfreqCounter); // v_intr
        self.kstack_touch(b, cpu, 1, 2);
    }

    /// Receiver-side follow-up work of a cross-processor interrupt.
    pub fn xproc_body(&self, b: &mut StreamBuilder, rng: &mut impl Rng, cpu: usize) {
        self.kernel_work(b, rng, cpu, 100, 35);
    }

    /// Timer interrupt: timer/accounting sequences on the shared timer
    /// structure under the timer lock.
    pub fn timer_tick(&self, b: &mut StreamBuilder, rng: &mut impl Rng, cpu: usize, cur_pid: u32) {
        self.code.timer_seq.emit(b);
        let lid = self.lock_id(KernelLock::Timer);
        b.lock_acquire(lid, self.layout.lock_addr(KernelLock::Timer));
        let timer = self.layout.hrtimer_addr();
        for k in 0..4u32 {
            b.read(timer.offset(k * WORD_SIZE), DataClass::TimerStruct);
        }
        b.write(timer.offset(0), DataClass::TimerStruct);
        b.lock_release(lid, self.layout.lock_addr(KernelLock::Timer));
        // Callout-table scan (sequential, small).
        for k in 0..3u32 {
            b.read(
                self.layout.runq_nodes.offset(0x8000 + k * 16),
                DataClass::KernelOther,
            );
        }
        self.code.acct_seq.emit(b);
        let alid = self.lock_id(KernelLock::Accounting);
        b.lock_acquire(alid, self.layout.lock_addr(KernelLock::Accounting));
        b.rmw(self.layout.counter_addr(13), DataClass::InfreqCounter); // v_tick
        b.lock_release(alid, self.layout.lock_addr(KernelLock::Accounting));
        b.read(self.layout.proc_addr(cur_pid), DataClass::ProcTable);
        b.write(self.layout.sched_info_addr(cpu), DataClass::KernelOther);
        self.kernel_work(b, rng, cpu, 180, 60);
    }

    /// `read(2)`-style file read: buffer-cache lookup under its lock, then
    /// a (usually sub-page) copy out to the user buffer.
    pub fn file_read(
        &self,
        b: &mut StreamBuilder,
        rng: &mut impl Rng,
        cpu: usize,
        pid: u32,
        len: u32,
        buf_n: u32,
    ) {
        self.code.file_io_entry.emit(b);
        self.kstack_touch(b, cpu, 2, 2);
        let lid = self.lock_id(KernelLock::BufCache);
        b.lock_acquire(lid, self.layout.lock_addr(KernelLock::BufCache));
        let buf = self.layout.buffer_addr(buf_n);
        b.read(buf, DataClass::BufferCache); // header probe
        b.lock_release(lid, self.layout.lock_addr(KernelLock::BufCache));
        let user = self
            .layout
            .user_data(pid)
            .offset(rng.gen_range(0..64u32) * 4096);
        self.block_copy(
            b,
            buf,
            user,
            len,
            DataClass::BufferCache,
            DataClass::UserData,
        );
        self.kernel_work(b, rng, cpu, 240, 80);
        b.rmw(self.layout.counter_addr(9), DataClass::InfreqCounter); // v_read
    }

    /// `write(2)`-style file write: copy from the user buffer into a
    /// buffer-cache buffer.
    pub fn file_write(
        &self,
        b: &mut StreamBuilder,
        rng: &mut impl Rng,
        cpu: usize,
        pid: u32,
        len: u32,
        buf_n: u32,
    ) {
        self.code.file_io_entry.emit(b);
        self.kstack_touch(b, cpu, 2, 2);
        // Processes write out data they just produced: the source is the
        // (warm) start of the data segment.
        let user = self
            .layout
            .user_data(pid)
            .offset(rng.gen_range(0..4u32) * 1024);
        let lid = self.lock_id(KernelLock::BufCache);
        b.lock_acquire(lid, self.layout.lock_addr(KernelLock::BufCache));
        let buf = self.layout.buffer_addr(buf_n);
        b.read(buf, DataClass::BufferCache);
        b.lock_release(lid, self.layout.lock_addr(KernelLock::BufCache));
        self.block_copy(
            b,
            user,
            buf,
            len,
            DataClass::UserData,
            DataClass::BufferCache,
        );
        self.kernel_work(b, rng, cpu, 240, 80);
        b.rmw(self.layout.counter_addr(10), DataClass::InfreqCounter); // v_write
    }

    /// The pager's periodic sweep: reads every event counter and walks some
    /// page frames (makes the counters *used*, not just updated — §5.1).
    pub fn pager_sweep(&self, b: &mut StreamBuilder, rng: &mut impl Rng) {
        self.read_all_counters(b);
        for _ in 0..8 {
            let f = rng.gen_range(0..crate::N_FRAMES);
            self.code.freelist_loop.emit_block(b, 0);
            b.read(self.layout.frame_addr(f), DataClass::KernelOther);
        }
        b.rmw(self.layout.counter_addr(15), DataClass::InfreqCounter); // v_pageout
    }

    /// Warms a fraction of the lines of a block before a block operation
    /// reads it (controls Table 3's "source lines already cached").
    #[allow(clippy::too_many_arguments)]
    pub fn warm_block(
        &self,
        b: &mut StreamBuilder,
        rng: &mut impl Rng,
        base: Addr,
        len: u32,
        fraction: f64,
        write: bool,
        class: DataClass,
    ) {
        let mut off = 0;
        while off < len {
            if rng.gen_bool(fraction) {
                if write {
                    b.write(base.offset(off), class);
                } else {
                    b.read(base.offset(off), class);
                }
            }
            off += 16; // one L1 line
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oscache_trace::rng::SmallRng;
    use oscache_trace::{CodeLayout, Event, Mode};

    fn kernel() -> (Kernel, CodeLayout) {
        let mut code = CodeLayout::new();
        let k = Kernel::new(&mut code);
        (k, code)
    }

    #[test]
    fn block_copy_emits_balanced_brackets_and_words() {
        let (k, _) = kernel();
        let mut b = StreamBuilder::new();
        b.set_mode(Mode::Os);
        k.block_copy(
            &mut b,
            Addr(0x1000_0000),
            Addr(0x1100_0000),
            4096,
            DataClass::PageFrame,
            DataClass::PageFrame,
        );
        let s = b.finish();
        assert_eq!(s.read_count(), 512); // 4096 / 8
        assert_eq!(s.write_count(), 512);
        let begins = s
            .events()
            .iter()
            .filter(|e| matches!(e, Event::BlockOpBegin { .. }))
            .count();
        let ends = s
            .events()
            .iter()
            .filter(|e| matches!(e, Event::BlockOpEnd))
            .count();
        assert_eq!(begins, 1);
        assert_eq!(ends, 1);
    }

    #[test]
    fn block_zero_emits_only_writes() {
        let (k, _) = kernel();
        let mut b = StreamBuilder::new();
        k.block_zero(&mut b, Addr(0x1000_0000), 1024, DataClass::PageFrame);
        let s = b.finish();
        assert_eq!(s.read_count(), 0);
        assert_eq!(s.write_count(), 128);
    }

    #[test]
    fn page_fault_locks_balance_and_touch_expected_classes() {
        let (k, _) = kernel();
        let mut rng = SmallRng::seed_from_u64(7);
        let mut b = StreamBuilder::new();
        b.set_mode(Mode::Os);
        k.page_fault(&mut b, &mut rng, 0, 5, 40, 100, Fill::Zero);
        let s = b.finish(); // panics if locks unbalanced
        let classes: Vec<_> = s.events().iter().filter_map(|e| e.data_class()).collect();
        assert!(classes.contains(&DataClass::PageTable));
        assert!(classes.contains(&DataClass::Freelist));
        assert!(classes.contains(&DataClass::InfreqCounter));
        assert!(classes.contains(&DataClass::PageFrame));
    }

    #[test]
    fn fork_chains_copies() {
        let (k, _) = kernel();
        let mut rng = SmallRng::seed_from_u64(3);
        let mut b = StreamBuilder::new();
        k.fork(&mut b, &mut rng, 1, 2, 3, &[10, 11], &[20, 21]);
        let s = b.finish();
        let copies = s
            .events()
            .iter()
            .filter(|e| matches!(e, Event::BlockOpBegin { .. }))
            .count();
        assert_eq!(copies, 2);
    }

    #[test]
    fn services_leave_no_locks_held() {
        let (k, _) = kernel();
        let mut rng = SmallRng::seed_from_u64(11);
        let mut b = StreamBuilder::new();
        b.set_mode(Mode::Os);
        k.syscall_entry(&mut b, &mut rng, 2, 7);
        k.context_switch(&mut b, &mut rng, 2, 7);
        k.timer_tick(&mut b, &mut rng, 2, 7);
        k.file_read(&mut b, &mut rng, 2, 7, 512, 1);
        k.file_write(&mut b, &mut rng, 2, 7, 256, 2);
        k.xproc_send(&mut b, 3);
        k.xproc_handle(&mut b, 2);
        k.pager_sweep(&mut b, &mut rng);
        k.exec_load(&mut b, &mut rng, 2, 7, 2, 1, 50);
        let _ = b.finish(); // would panic if any lock were held
    }

    #[test]
    fn warm_block_fraction_controls_coverage() {
        let (k, _) = kernel();
        let mut rng = SmallRng::seed_from_u64(5);
        let mut b = StreamBuilder::new();
        k.warm_block(
            &mut b,
            &mut rng,
            Addr(0x1000_0000),
            4096,
            0.5,
            false,
            DataClass::PageFrame,
        );
        let s = b.finish();
        let n = s.read_count();
        assert!(n > 80 && n < 180, "expected ~128 warm touches, got {n}");
    }
}
