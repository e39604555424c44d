//! Physical placement of kernel data structures.
//!
//! The traced machine maps kernel virtual addresses one-to-one to physical
//! addresses (§2.2), so a single flat layout describes the kernel. The
//! layout deliberately reproduces the sharing pathologies the paper
//! observes in Concentrix: event counters packed together in cache lines
//! (privatization targets, §5.1), synchronization variables sharing lines
//! with each other (relocation targets), and per-CPU scheduling fields
//! falsely shared in common lines (the "Other" coherence category of
//! Table 5).

use oscache_trace::{Addr, DataClass, KernelVar, VarRole, MAX_CPUS, PAGE_SIZE};

/// Number of processors the kernel is laid out for.
pub const N_CPUS: usize = 4;

/// Number of `vmmeter`-style event counters.
pub const N_COUNTERS: usize = 16;

/// Number of kernel spin locks.
pub const N_LOCKS: usize = 12;

/// Number of gang-scheduling barriers.
pub const N_BARRIERS: usize = 4;

/// Number of system-resource-table pointers (frequently shared).
pub const N_RESOURCES: usize = 16;

/// Number of process-table entries.
pub const N_PROCS: usize = 64;

/// Bytes per process-table entry.
pub const PROC_ENTRY_SIZE: u32 = 512;

/// Number of page-table entries per process (4-MB address space).
pub const PTES_PER_PROC: u32 = 1024;

/// Number of file-system buffer-cache buffers.
pub const N_BUFFERS: u32 = 256;

/// Number of physical page frames available to the page allocator.
pub const N_FRAMES: u32 = 4096;

/// Well-known kernel locks, in activity order.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum KernelLock {
    /// Physical-memory (free-list) allocation lock.
    Freemem = 0,
    /// Job-scheduling (run-queue) lock.
    Sched = 1,
    /// High-resolution-timer lock.
    Timer = 2,
    /// Accounting lock.
    Accounting = 3,
    /// Buffer-cache lock.
    BufCache = 4,
    /// Process-table lock.
    ProcTable = 5,
    /// Callout-table lock.
    Callout = 6,
    /// VM-map lock.
    VmMap = 7,
    /// TTY subsystem lock.
    Tty = 8,
    /// Network-interface lock.
    Net = 9,
    /// File-table lock.
    FileTable = 10,
    /// Inode-cache lock.
    Inode = 11,
}

/// The kernel's physical memory map.
#[derive(Clone, Debug)]
pub struct KernelLayout {
    /// Number of processors the kernel is configured for.
    pub n_cpus: usize,
    /// Start of kernel text.
    pub text_base: Addr,
    /// Start of the kernel static-data area.
    pub static_base: Addr,
    /// Start of the process table.
    pub proc_table: Addr,
    /// Start of the per-process page-table arrays.
    pub page_tables: Addr,
    /// Start of the per-CPU kernel stacks.
    pub kstacks: Addr,
    /// Start of the run-queue node pool.
    pub runq_nodes: Addr,
    /// Start of the buffer cache.
    pub buffer_cache: Addr,
    /// Start of the physical page-frame pool.
    pub page_frames: Addr,
    /// Base of per-process user address spaces.
    pub user_base: Addr,
    /// Statically-allocated kernel variables (optimization candidates).
    pub vars: Vec<KernelVar>,
}

impl KernelLayout {
    /// Builds the standard 4-CPU layout (the paper's machine).
    pub fn new() -> Self {
        Self::for_cpus(N_CPUS)
    }

    /// Builds a layout for `n_cpus` processors (2–8; the scalability
    /// extension sweeps this).
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= n_cpus <= MAX_CPUS`.
    pub fn for_cpus(n_cpus: usize) -> Self {
        assert!(
            (1..=MAX_CPUS).contains(&n_cpus),
            "supported CPU counts are 1..={MAX_CPUS}"
        );
        let static_base = Addr(0x0100_0000);
        let mut vars = Vec::new();

        // vmmeter event counters: 4-byte counters packed 4 per 16-byte
        // line — the uniprocessor heritage the paper calls out (§5.1).
        let counter_names = [
            "vmmeter.v_intr",
            "vmmeter.v_swtch",
            "vmmeter.v_trap",
            "vmmeter.v_syscall",
            "vmmeter.v_pgfault",
            "vmmeter.v_pgzero",
            "vmmeter.v_pgcopy",
            "vmmeter.v_fork",
            "vmmeter.v_exec",
            "vmmeter.v_read",
            "vmmeter.v_write",
            "vmmeter.v_iowait",
            "vmmeter.v_sched",
            "vmmeter.v_tick",
            "vmmeter.v_softint",
            "vmmeter.v_pageout",
        ];
        for (k, name) in counter_names.iter().enumerate() {
            vars.push(KernelVar {
                name: (*name).to_string(),
                addr: static_base.offset(k as u32 * 4),
                size: 4,
                class: DataClass::InfreqCounter,
                role: VarRole::Counter,
                false_shared_group: Some((k / 4) as u16),
            });
        }

        // freelist bookkeeping (producer-consumer: §5.2 update candidate).
        vars.push(KernelVar {
            name: "freelist.size".to_string(),
            addr: static_base.offset(0x100),
            size: 4,
            class: DataClass::Freelist,
            role: VarRole::FreqShared {
                producer_consumer: true,
            },
            false_shared_group: None,
        });
        vars.push(KernelVar {
            name: "freelist.head".to_string(),
            addr: static_base.offset(0x104),
            size: 4,
            class: DataClass::Freelist,
            role: VarRole::FreqShared {
                producer_consumer: true,
            },
            false_shared_group: None,
        });

        // cpievents: cross-processor-interrupt descriptors (§5.2 example).
        for cpu in 0..n_cpus {
            vars.push(KernelVar {
                name: format!("cpievents[{cpu}]"),
                addr: static_base.offset(0x140 + cpu as u32 * 8),
                size: 8,
                class: DataClass::CpiEvents,
                role: VarRole::FreqShared {
                    producer_consumer: true,
                },
                false_shared_group: None,
            });
        }

        // System-resource-table process pointers (§5's freq-shared class).
        for r in 0..N_RESOURCES {
            vars.push(KernelVar {
                name: format!("resource[{r}].proc"),
                addr: static_base.offset(0x180 + r as u32 * 4),
                size: 4,
                class: DataClass::FreqShared,
                role: VarRole::FreqShared {
                    producer_consumer: r % 2 == 0,
                },
                false_shared_group: None,
            });
        }

        // Kernel locks, packed four per line (relocation separates them).
        let lock_names = [
            "lock.freemem",
            "lock.sched",
            "lock.timer",
            "lock.accounting",
            "lock.bufcache",
            "lock.proctable",
            "lock.callout",
            "lock.vmmap",
            "lock.tty",
            "lock.net",
            "lock.filetable",
            "lock.inode",
        ];
        for (k, name) in lock_names.iter().enumerate() {
            vars.push(KernelVar {
                name: (*name).to_string(),
                addr: static_base.offset(0x300 + k as u32 * 4),
                size: 4,
                class: DataClass::LockVar,
                role: VarRole::Lock,
                false_shared_group: Some((0x30 + k / 4) as u16),
            });
        }

        // Gang-scheduling barriers (48 bytes total, §5.2).
        for k in 0..N_BARRIERS {
            vars.push(KernelVar {
                name: format!("gang_barrier[{k}]"),
                addr: static_base.offset(0x340 + k as u32 * 12),
                size: 12,
                class: DataClass::BarrierVar,
                role: VarRole::Barrier,
                false_shared_group: None,
            });
        }

        // High-resolution timer / accounting structure (§6 hot data).
        vars.push(KernelVar {
            name: "hrtimer".to_string(),
            addr: static_base.offset(0x400),
            size: 64,
            class: DataClass::TimerStruct,
            role: VarRole::Plain,
            false_shared_group: None,
        });

        // Per-CPU scheduler fields falsely shared in a few lines ("Other"
        // coherence misses, Table 5).
        for cpu in 0..n_cpus {
            vars.push(KernelVar {
                name: format!("cpu_sched_info[{cpu}]"),
                addr: static_base.offset(0x500 + cpu as u32 * 8),
                size: 8,
                class: DataClass::KernelOther,
                role: VarRole::Plain,
                false_shared_group: Some((0x50 + cpu / 2) as u16),
            });
        }

        // Run-queue header.
        vars.push(KernelVar {
            name: "runq.head".to_string(),
            addr: static_base.offset(0x600),
            size: 16,
            class: DataClass::RunQueue,
            role: VarRole::FreqShared {
                producer_consumer: false,
            },
            false_shared_group: None,
        });

        // System-call dispatch table (read-only; §6 prefetchable).
        vars.push(KernelVar {
            name: "syscall_table".to_string(),
            addr: static_base.offset(0x800),
            size: 256 * 4,
            class: DataClass::SyscallTable,
            role: VarRole::Plain,
            false_shared_group: None,
        });

        // Region bases are staggered modulo the 32-KB direct-mapped L1D so
        // that structures do not all collide in the same frames — on a
        // real machine the physical placement of independently-allocated
        // regions is effectively arbitrary, and the paper finds conflicts
        // are "random", not concentrated between structure pairs (§6).
        KernelLayout {
            n_cpus,
            text_base: Addr(0x0001_0000),
            static_base,
            proc_table: Addr(0x0101_0c00),
            page_tables: Addr(0x0110_2400),
            kstacks: Addr(0x0104_5800),
            runq_nodes: Addr(0x0102_3000),
            buffer_cache: Addr(0x0200_1c00),
            page_frames: Addr(0x1000_0000),
            user_base: Addr(0x4000_0000),
            vars,
        }
    }

    /// Address of a named static variable.
    ///
    /// # Panics
    ///
    /// Panics if no variable has that name.
    pub fn var_addr(&self, name: &str) -> Addr {
        self.vars
            .iter()
            .find(|v| v.name == name)
            .unwrap_or_else(|| panic!("unknown kernel variable {name}"))
            .addr
    }

    /// Address of one of the well-known locks.
    pub fn lock_addr(&self, lock: KernelLock) -> Addr {
        self.static_base.offset(0x300 + lock as u32 * 4)
    }

    /// Address of `freelist.size`.
    pub fn freelist_size_addr(&self) -> Addr {
        self.static_base.offset(0x100)
    }

    /// Address of `freelist.head`.
    pub fn freelist_head_addr(&self) -> Addr {
        self.static_base.offset(0x104)
    }

    /// Address of `cpievents[cpu]`.
    ///
    /// # Panics
    ///
    /// Panics if `cpu >= N_CPUS`.
    pub fn cpievents_addr(&self, cpu: usize) -> Addr {
        assert!(cpu < self.n_cpus);
        self.static_base.offset(0x140 + cpu as u32 * 8)
    }

    /// Address of `resource[r].proc`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= N_RESOURCES`.
    pub fn resource_addr(&self, r: usize) -> Addr {
        assert!(r < N_RESOURCES);
        self.static_base.offset(0x180 + r as u32 * 4)
    }

    /// Address of the falsely-shared `cpu_sched_info[cpu]`.
    ///
    /// # Panics
    ///
    /// Panics if `cpu >= N_CPUS`.
    pub fn sched_info_addr(&self, cpu: usize) -> Addr {
        assert!(cpu < self.n_cpus);
        self.static_base.offset(0x500 + cpu as u32 * 8)
    }

    /// Address of `runq.head`.
    pub fn runq_head_addr(&self) -> Addr {
        self.static_base.offset(0x600)
    }

    /// Address of the high-resolution timer structure.
    pub fn hrtimer_addr(&self) -> Addr {
        self.static_base.offset(0x400)
    }

    /// Address of the system-call dispatch table.
    pub fn syscall_table_addr(&self) -> Addr {
        self.static_base.offset(0x800)
    }

    /// Address of a gang barrier.
    ///
    /// # Panics
    ///
    /// Panics if `k >= N_BARRIERS`.
    pub fn barrier_addr(&self, k: usize) -> Addr {
        assert!(k < N_BARRIERS);
        self.static_base.offset(0x340 + k as u32 * 12)
    }

    /// Address of one event counter.
    ///
    /// # Panics
    ///
    /// Panics if `k >= N_COUNTERS`.
    pub fn counter_addr(&self, k: usize) -> Addr {
        assert!(k < N_COUNTERS);
        self.static_base.offset(k as u32 * 4)
    }

    /// Address of a process-table entry.
    pub fn proc_addr(&self, pid: u32) -> Addr {
        self.proc_table
            .offset((pid % N_PROCS as u32) * PROC_ENTRY_SIZE)
    }

    /// Address of a page-table entry of a process.
    pub fn pte_addr(&self, pid: u32, pte: u32) -> Addr {
        self.page_tables
            .offset((pid % N_PROCS as u32) * PTES_PER_PROC * 4 + (pte % PTES_PER_PROC) * 4)
    }

    /// Address of physical page frame `n`.
    pub fn frame_addr(&self, n: u32) -> Addr {
        self.page_frames.offset((n % N_FRAMES) * PAGE_SIZE)
    }

    /// Address of buffer-cache buffer `n`.
    pub fn buffer_addr(&self, n: u32) -> Addr {
        self.buffer_cache.offset((n % N_BUFFERS) * PAGE_SIZE)
    }

    /// Base of the kernel stack of one CPU.
    pub fn kstack_addr(&self, cpu: usize) -> Addr {
        self.kstacks.offset(cpu as u32 * PAGE_SIZE)
    }

    /// Base of one CPU's kernel working area (u-area, pv lists, per-CPU
    /// caches): the bulk of kernel data work happens here and stays
    /// cache-resident, which is what keeps the OS miss *rate* at a few
    /// percent even though the OS issues 40–61% of all data reads
    /// (Table 1).
    pub fn scratch_addr(&self, cpu: usize) -> Addr {
        self.kstacks.offset((8 + 2 * cpu as u32) * PAGE_SIZE)
    }

    /// Base of process `pid`'s user data segment. Bases are staggered
    /// modulo the L1D size so different processes' hot regions do not all
    /// map to the same frames.
    pub fn user_data(&self, pid: u32) -> Addr {
        let seg = pid.wrapping_mul(0x0100_0000) & 0x3fff_ffff;
        self.user_base.offset(seg + (pid % 7) * 0x1200)
    }
}

impl Default for KernelLayout {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn named_vars_resolve() {
        let l = KernelLayout::new();
        assert_eq!(l.var_addr("vmmeter.v_intr"), l.counter_addr(0));
        assert_eq!(l.var_addr("freelist.size"), l.static_base.offset(0x100));
        assert_eq!(l.var_addr("lock.sched"), l.lock_addr(KernelLock::Sched));
    }

    #[test]
    #[should_panic(expected = "unknown kernel variable")]
    fn unknown_var_panics() {
        KernelLayout::new().var_addr("no_such_thing");
    }

    #[test]
    fn counters_are_packed_four_per_line() {
        let l = KernelLayout::new();
        // counters 0..3 share a 16-byte line; 4 starts the next.
        assert_eq!(l.counter_addr(0).line(16), l.counter_addr(3).line(16));
        assert_ne!(l.counter_addr(3).line(16), l.counter_addr(4).line(16));
    }

    #[test]
    fn locks_share_lines_in_base_layout() {
        let l = KernelLayout::new();
        assert_eq!(
            l.lock_addr(KernelLock::Freemem).line(16),
            l.lock_addr(KernelLock::Accounting).line(16)
        );
    }

    #[test]
    fn table_addressing_is_bounded() {
        let l = KernelLayout::new();
        assert_eq!(l.proc_addr(0), l.proc_table);
        assert_eq!(l.proc_addr(64), l.proc_table); // wraps
        assert_eq!(l.pte_addr(1, 0), l.page_tables.offset(1024 * 4));
        assert_eq!(l.frame_addr(1), l.page_frames.offset(4096));
        assert_eq!(l.buffer_addr(2), l.buffer_cache.offset(8192));
    }

    #[test]
    fn distinct_regions_do_not_overlap() {
        let l = KernelLayout::new();
        let regions = [
            (l.text_base.0, 0x0008_0000),
            (l.static_base.0, 0x1000),
            (l.proc_table.0, N_PROCS as u32 * PROC_ENTRY_SIZE),
            (l.page_tables.0, N_PROCS as u32 * PTES_PER_PROC * 4),
            (l.buffer_cache.0, N_BUFFERS * PAGE_SIZE),
            (l.page_frames.0, N_FRAMES * PAGE_SIZE),
        ];
        for (i, &(a, alen)) in regions.iter().enumerate() {
            for &(b, blen) in &regions[i + 1..] {
                assert!(a + alen <= b || b + blen <= a, "regions overlap");
            }
        }
    }

    #[test]
    fn every_var_lies_in_the_static_page_range() {
        let l = KernelLayout::new();
        for v in &l.vars {
            assert!(v.addr.0 >= l.static_base.0);
            assert!(v.addr.0 + v.size <= l.static_base.0 + 4 * PAGE_SIZE);
        }
    }
}
