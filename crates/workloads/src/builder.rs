//! The four workloads of the paper (§2.3), composed from kernel services
//! and user-program models.
//!
//! Each builder produces a 4-CPU [`ChunkedTrace`] whose structure is calibrated
//! against the paper's measurements: execution-time split (Table 1), miss
//! breakdown (Table 2), block-operation characteristics and size mix
//! (Table 3), and coherence-miss breakdown (Table 5). Generation is
//! deterministic for a given seed and scale.

use crate::user::{UserProc, UserPrograms};
use oscache_kernel::{Fill, Kernel, N_BARRIERS, N_BUFFERS, N_FRAMES};
use oscache_trace::rng::{Rng, SmallRng};
use oscache_trace::{
    BarrierId, ChunkedTrace, CodeLayout, DataClass, Mode, StreamBuilder, TraceMeta,
};

/// Number of CPUs in every workload (the traced machine has 4).
pub const N_CPUS: usize = 4;

/// Which of the paper's workloads to build.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Workload {
    /// `TRFD_4`: four 4-process runs of the parallel TRFD code — highly
    /// parallel, synchronization-intensive, heavy page-fault and
    /// cross-interrupt activity.
    Trfd4,
    /// `TRFD+Make`: one TRFD plus four C-compiler runs — mixed
    /// parallel/serial regimes, substantial paging.
    TrfdMake,
    /// `ARC2D+Fsck`: four ARC2D copies plus a file-system check — wide
    /// I/O variety.
    Arc2dFsck,
    /// `Shell`: a heavily multiprogrammed shell script (21 background
    /// jobs) — sequential, fork/exec and system-call intensive.
    Shell,
}

impl Workload {
    /// The paper's name for the workload.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Trfd4 => "TRFD_4",
            Workload::TrfdMake => "TRFD+Make",
            Workload::Arc2dFsck => "ARC2D+Fsck",
            Workload::Shell => "Shell",
        }
    }

    /// All four workloads in the paper's column order.
    pub fn all() -> [Workload; 4] {
        [
            Workload::Trfd4,
            Workload::TrfdMake,
            Workload::Arc2dFsck,
            Workload::Shell,
        ]
    }
}

impl std::fmt::Display for Workload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Build options.
#[derive(Clone, Copy, Debug)]
pub struct BuildOptions {
    /// Scale factor on the number of scheduling rounds (1.0 ≈ a few
    /// million events; use ~0.05 for tests).
    pub scale: f64,
    /// RNG seed (generation is deterministic per seed).
    pub seed: u64,
    /// Number of processors (the paper's machine has 4; 1–8 supported
    /// for the scalability extension).
    pub n_cpus: usize,
}

impl Default for BuildOptions {
    fn default() -> Self {
        BuildOptions {
            scale: 1.0,
            seed: 0x05cac8e,
            n_cpus: N_CPUS,
        }
    }
}

/// Per-workload activity rates (per scheduling round, per CPU unless
/// noted). These are the calibration knobs mapped to the paper's tables —
/// and the public recipe for building *custom* workloads with
/// [`build_with_mix`].
#[derive(Clone, Copy, Debug)]
pub struct Mix {
    /// Scheduling rounds at scale 1.0.
    pub rounds: u32,
    /// User compute steps per round per CPU.
    pub user_steps: u32,
    /// Segments per round (service interleave points).
    pub segments: u32,
    /// Demand-zero page faults per round per CPU.
    pub pf_zero: f64,
    /// Page-in faults (buffer-cache copies) per round per CPU.
    pub pf_pagein: f64,
    /// Soft faults (no fill) per round per CPU.
    pub pf_soft: f64,
    /// Chained page copies (§4.1.3's reuse pattern) per round per CPU.
    pub chain_copy: f64,
    /// User-to-user exchange copies per round per CPU.
    pub user_copy: f64,
    /// Plain system calls per round per CPU.
    pub syscalls: f64,
    /// Sub-1-KB file operations per round per CPU.
    pub file_small: f64,
    /// 1–4-KB file operations per round per CPU.
    pub file_med: f64,
    /// Forks per round per CPU.
    pub forks: f64,
    /// Pages copied per fork (inclusive range).
    pub fork_pages: (u32, u32),
    /// Execs per round per CPU.
    pub execs: f64,
    /// Cross-processor interrupt pairs per round (whole machine).
    pub xproc_pairs: f64,
    /// Gang-schedule every N rounds (0 = never).
    pub gang_every: u32,
    /// Extra gang barriers per gang round.
    pub extra_barriers: u32,
    /// Idle cycles per round per CPU.
    pub idle_cycles: u32,
    /// Probability a fault's destination frame is a warm recycled frame.
    pub dst_warm: f64,
    /// Context switches per round per CPU.
    pub ctx_switches: u32,
    /// Multiplier on per-service kernel data work.
    pub work_scale: f64,
    /// Probability a system call chases cold scattered structures.
    pub misc_lookup: f64,
}

fn rates(w: Workload) -> Mix {
    match w {
        Workload::Trfd4 => Mix {
            rounds: 60,
            user_steps: 1400,
            segments: 8,
            pf_zero: 1.9,
            pf_pagein: 0.2,
            pf_soft: 1.0,
            chain_copy: 0.85,
            user_copy: 0.55,
            syscalls: 1.0,
            file_small: 0.3,
            file_med: 0.05,
            forks: 0.05,
            fork_pages: (2, 4),
            execs: 0.02,
            xproc_pairs: 3.0,
            gang_every: 1,
            extra_barriers: 9,
            idle_cycles: 14_000,
            dst_warm: 0.22,
            ctx_switches: 1,
            work_scale: 2.2,
            misc_lookup: 0.1,
        },
        Workload::TrfdMake => Mix {
            rounds: 60,
            user_steps: 1100,
            segments: 8,
            pf_zero: 1.2,
            pf_pagein: 0.25,
            pf_soft: 0.8,
            chain_copy: 0.35,
            user_copy: 0.35,
            syscalls: 2.5,
            file_small: 1.7,
            file_med: 0.35,
            forks: 0.25,
            fork_pages: (1, 2),
            execs: 0.2,
            xproc_pairs: 1.5,
            gang_every: 3,
            extra_barriers: 12,
            idle_cycles: 14_000,
            dst_warm: 0.22,
            ctx_switches: 2,
            work_scale: 1.5,
            misc_lookup: 0.25,
        },
        Workload::Arc2dFsck => Mix {
            rounds: 60,
            user_steps: 1100,
            segments: 8,
            pf_zero: 0.9,
            pf_pagein: 0.2,
            pf_soft: 0.8,
            chain_copy: 0.5,
            user_copy: 0.3,
            syscalls: 2.0,
            file_small: 2.6,
            file_med: 0.9,
            forks: 0.1,
            fork_pages: (2, 3),
            execs: 0.05,
            xproc_pairs: 1.2,
            gang_every: 2,
            extra_barriers: 12,
            idle_cycles: 16_000,
            dst_warm: 0.45,
            ctx_switches: 2,
            work_scale: 0.95,
            misc_lookup: 0.3,
        },
        Workload::Shell => Mix {
            rounds: 60,
            user_steps: 650,
            segments: 8,
            pf_zero: 0.6,
            pf_pagein: 0.05,
            pf_soft: 0.6,
            chain_copy: 0.05,
            user_copy: 0.1,
            syscalls: 6.0,
            file_small: 5.0,
            file_med: 0.4,
            forks: 0.12,
            fork_pages: (1, 1),
            execs: 0.2,
            xproc_pairs: 0.6,
            gang_every: 16,
            extra_barriers: 2,
            idle_cycles: 30_000,
            dst_warm: 0.05,
            ctx_switches: 3,
            work_scale: 0.5,
            misc_lookup: 1.0,
        },
    }
}

impl Workload {
    /// The calibrated activity mix of this workload (a starting point for
    /// custom mixes).
    pub fn mix(self) -> Mix {
        rates(self)
    }
}

/// Builds one of the paper's workload traces, encoded straight into the
/// chunked representation: each per-CPU stream is sealed into fixed-size
/// delta-encoded chunks as the generator emits events, so the peak decoded
/// footprint during generation is one chunk per CPU instead of the whole
/// event vector. Deterministic per [`TraceBuildKey`].
pub fn build_chunked(workload: Workload, opts: BuildOptions) -> ChunkedTrace {
    Builder::new(workload, rates(workload), opts).run()
}

/// [`build_chunked`] under a memory budget: each per-CPU stream seals its
/// chunks straight into `store`'s segment for that CPU whenever `budget`
/// refuses to keep them resident, so the build's peak memory is O(chunk)
/// even when the encoded trace exceeds the budget. The produced trace
/// decodes event-for-event identical to [`build_chunked`] — only where
/// the encoded bytes live differs (the spill oracle pins this).
pub fn build_chunked_spilled(
    workload: Workload,
    opts: BuildOptions,
    store: &std::sync::Arc<oscache_trace::SpillStore>,
    budget: &std::sync::Arc<oscache_trace::MemBudget>,
) -> ChunkedTrace {
    let mut b = Builder::new(workload, rates(workload), opts);
    for (cpu, s) in b.streams.iter_mut().enumerate() {
        *s = spilling_stream(cpu, store, budget);
    }
    b.run()
}

/// A fresh spilling stream builder with the initial `Mode::User` switch
/// the generator expects (matching `Builder::new`'s stream setup).
fn spilling_stream(
    cpu: usize,
    store: &std::sync::Arc<oscache_trace::SpillStore>,
    budget: &std::sync::Arc<oscache_trace::MemBudget>,
) -> StreamBuilder {
    let mut s = StreamBuilder::new_chunked_spilling(oscache_trace::SpillTarget {
        store: store.clone(),
        cpu,
        budget: budget.clone(),
    });
    s.set_mode(Mode::User);
    s
}

/// [`build_chunked`] behind an [`std::sync::Arc`] for the trace cache.
pub fn build_chunked_shared(
    workload: Workload,
    opts: BuildOptions,
) -> std::sync::Arc<ChunkedTrace> {
    std::sync::Arc::new(build_chunked(workload, opts))
}

/// The identity of a calibrated trace build: two equal keys always denote
/// bitwise-identical traces (generation is deterministic per key).
///
/// The float scale is captured by its IEEE-754 bit pattern so the key is
/// hashable without tolerance games.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct TraceBuildKey {
    /// Which workload generator ran.
    pub workload: Workload,
    /// `scale.to_bits()` of the build.
    pub scale_bits: u64,
    /// RNG seed.
    pub seed: u64,
    /// Processor count of the traced machine.
    pub n_cpus: usize,
}

impl BuildOptions {
    /// The cache key identifying the trace `build_chunked(workload, self)`
    /// returns.
    pub fn key(&self, workload: Workload) -> TraceBuildKey {
        TraceBuildKey {
            workload,
            scale_bits: self.scale.to_bits(),
            seed: self.seed,
            n_cpus: self.n_cpus,
        }
    }
}

impl TraceBuildKey {
    /// The build options this key denotes — the exact inverse of
    /// [`BuildOptions::key`], which is what lets a spill rebuilder
    /// re-derive a trace from nothing but the key.
    pub fn options(&self) -> BuildOptions {
        BuildOptions {
            scale: f64::from_bits(self.scale_bits),
            seed: self.seed,
            n_cpus: self.n_cpus,
        }
    }
}

/// Builds a trace from a custom activity [`Mix`].
///
/// The user-program phase follows `base`'s recipe (which applications run
/// when); every kernel-activity rate comes from `mix`. The trace's
/// workload name is `name`.
///
/// # Examples
///
/// ```
/// use oscache_workloads::{build_with_mix, BuildOptions, Workload};
///
/// let mut mix = Workload::Shell.mix();
/// mix.syscalls *= 2.0; // a syscall-happier shell
/// let trace = build_with_mix(
///     "Shell/2x-syscalls",
///     Workload::Shell,
///     mix,
///     BuildOptions { scale: 0.05, ..Default::default() },
/// );
/// assert_eq!(trace.meta.workload, "Shell/2x-syscalls");
/// ```
///
/// # Panics
///
/// Panics if `opts.scale <= 0`, `mix.segments < 2`, or `opts.n_cpus` is
/// outside `1..=8`.
pub fn build_with_mix(name: &str, base: Workload, mix: Mix, opts: BuildOptions) -> ChunkedTrace {
    assert!(mix.segments >= 2, "need at least two segments per round");
    let mut trace = Builder::new(base, mix, opts).run();
    trace.meta.workload = name.to_string();
    trace
}

struct Builder {
    workload: Workload,
    n_cpus: usize,
    rates: Mix,
    kernel: Kernel,
    users: UserPrograms,
    code: CodeLayout,
    streams: Vec<StreamBuilder>,
    rng: SmallRng,
    frame_next: u32,
    /// Per-CPU frames recently produced by block operations (zeroed pages,
    /// fork children) — the source pool for chained copies (§4.1.3).
    recent_frames: Vec<Vec<u32>>,
    procs: Vec<UserProc>,
    pid_next: u32,
    rounds: u32,
    fault_cursor: Vec<u32>,
    last_buffer: Vec<u32>,
}

impl Builder {
    fn new(workload: Workload, r: Mix, opts: BuildOptions) -> Self {
        assert!(opts.scale > 0.0, "scale must be positive");
        let n_cpus = opts.n_cpus;
        let mut code = CodeLayout::new();
        let mut kernel = Kernel::for_cpus(&mut code, n_cpus);
        let users = UserPrograms::new(&mut code, &kernel);
        kernel.work_scale = r.work_scale;
        kernel.misc_lookup = r.misc_lookup;
        let rounds = ((f64::from(r.rounds) * opts.scale).round() as u32).max(2);
        let procs = (0..n_cpus)
            .map(|c| UserProc::new(&kernel, 4 + c as u32))
            .collect();
        let mut streams: Vec<StreamBuilder> = (0..n_cpus).map(|_| StreamBuilder::new()).collect();
        for s in &mut streams {
            s.set_mode(Mode::User);
        }
        Builder {
            workload,
            n_cpus,
            rates: r,
            kernel,
            users,
            code,
            streams,
            rng: SmallRng::seed_from_u64(opts.seed),
            frame_next: 64,
            recent_frames: vec![Vec::new(); n_cpus],
            fault_cursor: vec![0; n_cpus],
            last_buffer: vec![0; n_cpus],
            procs,
            pid_next: 8,
            rounds,
        }
    }

    fn alloc_frame(&mut self) -> u32 {
        let f = self.frame_next;
        self.frame_next = (self.frame_next + 1) % N_FRAMES;
        f
    }

    fn alloc_pid(&mut self) -> u32 {
        let p = self.pid_next;
        // A small recycled pid space: exiting processes' frames and table
        // entries are promptly reused, as on a busy machine.
        self.pid_next = 8 + (self.pid_next - 7) % 16;
        p
    }

    /// Samples an integer count from a fractional per-round rate.
    fn count(&mut self, rate: f64) -> u32 {
        let base = rate.floor() as u32;
        base + u32::from(self.rng.gen_bool(rate.fract()))
    }

    fn remember_frame(&mut self, cpu: usize, frame: u32) {
        let q = &mut self.recent_frames[cpu];
        q.push(frame);
        if q.len() > 16 {
            q.remove(0);
        }
    }

    // ---- service wrappers (mode switched around each) --------------------

    fn os<F: FnOnce(&mut Self)>(&mut self, cpu: usize, f: F) {
        self.streams[cpu].set_mode(Mode::Os);
        f(self);
        self.streams[cpu].set_mode(Mode::User);
    }

    fn do_page_fault(&mut self, cpu: usize) {
        let total = self.rates.pf_zero + self.rates.pf_pagein + self.rates.pf_soft;
        let x = self.rng.gen_range(0.0..total);
        // The allocator prefers recently-freed frames (with probability
        // `dst_warm`), whose lines are still owned by this CPU's L2 — the
        // source of Table 3's "destination lines already in L2" row.
        let frame = if self.rng.gen_bool(self.rates.dst_warm) {
            self.recent_frames[cpu]
                .pop()
                .unwrap_or_else(|| self.alloc_frame())
        } else {
            self.alloc_frame()
        };
        let pid = self.procs[cpu].pid;
        self.streams[cpu].set_mode(Mode::Os);
        let fill = if x < self.rates.pf_zero {
            Fill::Zero
        } else if x < self.rates.pf_zero + self.rates.pf_pagein {
            let n = self.hot_buffer(cpu);
            Fill::From(self.kernel.layout.buffer_addr(n))
        } else {
            Fill::Soft
        };
        let pte_base = self.fault_cursor[cpu];
        self.fault_cursor[cpu] = (pte_base + self.rng.gen_range(1..4u32)) % 1008;
        let (kernel, rng, b) = (&self.kernel, &mut self.rng, &mut self.streams[cpu]);
        kernel.page_fault(b, rng, cpu, pid, pte_base, frame, fill);
        self.streams[cpu].set_mode(Mode::User);
        if fill != Fill::Soft {
            self.remember_frame(cpu, frame);
        }
    }

    /// A user-to-user data exchange (TRFD's "data exchanges"): the kernel
    /// copies a page the sender just produced into a peer process's
    /// receive area — the source is as warm as the sender's recent
    /// activity left it.
    fn do_user_copy(&mut self, cpu: usize) {
        let src_proc = &self.procs[cpu];
        // The sender usually exchanges its hot operand page; sometimes the
        // page it most recently streamed through.
        let src = if self.rng.gen_bool(0.7) {
            src_proc.data
        } else {
            src_proc
                .data
                .offset(64 * 1024 + (src_proc.stream_pos() & !4095) % (96 * 1024))
        };
        let peer = self.procs[(cpu + 1) % self.n_cpus].data;
        let dst = peer.offset(448 * 1024 + (cpu as u32) * 8192);
        self.streams[cpu].set_mode(Mode::Os);
        let (kernel, rng) = (&self.kernel, &mut self.rng);
        {
            let b = &mut self.streams[cpu];
            kernel.syscall_entry(b, rng, cpu, self.procs[cpu].pid);
            kernel.block_copy(
                b,
                src,
                dst,
                oscache_trace::PAGE_SIZE,
                DataClass::UserData,
                DataClass::UserData,
            );
        }
        self.streams[cpu].set_mode(Mode::User);
    }

    /// Buffer choice: file access is bursty — a process usually keeps
    /// working on the buffer it just used, sometimes another of a small
    /// hot set, occasionally something cold.
    fn hot_buffer(&mut self, cpu: usize) -> u32 {
        let x: f64 = self.rng.gen_f64();
        let b = if x < 0.68 {
            self.last_buffer[cpu]
        } else if x < 0.9 {
            self.rng.gen_range(0..3u32)
        } else {
            self.rng.gen_range(0..N_BUFFERS)
        };
        self.last_buffer[cpu] = b;
        b
    }

    /// A page copy whose source is a recently-produced block (fork-chain /
    /// copy-chain pattern): under cache-bypassing schemes its source reads
    /// become *inside reuses* (§4.1.3).
    fn do_chain_copy(&mut self, cpu: usize) {
        let Some(src) = self.recent_frames[cpu].pop() else {
            return;
        };
        let dst = self.alloc_frame();
        self.streams[cpu].set_mode(Mode::Os);
        let sa = self.kernel.layout.frame_addr(src);
        let da = self.kernel.layout.frame_addr(dst);
        let (kernel, b) = (&self.kernel, &mut self.streams[cpu]);
        kernel.block_copy(
            b,
            sa,
            da,
            oscache_trace::PAGE_SIZE,
            DataClass::PageFrame,
            DataClass::PageFrame,
        );
        self.streams[cpu].set_mode(Mode::User);
        self.remember_frame(cpu, dst);
    }

    fn do_fork(&mut self, cpu: usize) {
        let parent = self.procs[cpu].pid;
        let child = self.alloc_pid();
        let npages = self
            .rng
            .gen_range(self.rates.fork_pages.0..=self.rates.fork_pages.1);
        // Fork copies the parent's writable pages — the pages its user
        // code has actually been touching, so the source is naturally as
        // warm as the parent's recent activity left it (Table 3 row 1).
        // The child's pages are its own address space; with the recycled
        // pid space, the destination of one fork becomes the source of a
        // later one (§4.1.3's fork-chain pattern).
        let parent_base = self.procs[cpu].data;
        let child_base = self.kernel.layout.user_data(child);
        self.streams[cpu].set_mode(Mode::Os);
        let (kernel, rng) = (&self.kernel, &mut self.rng);
        kernel.fork_pages(
            &mut self.streams[cpu],
            rng,
            cpu,
            parent,
            child,
            parent_base,
            child_base,
            npages,
        );
        self.streams[cpu].set_mode(Mode::User);
    }

    fn do_exec(&mut self, cpu: usize) {
        let pid = self.alloc_pid();
        let frame_base = self.frame_next;
        let text = 1;
        let zero = 1;
        for _ in 0..(text + zero) {
            self.alloc_frame();
        }
        self.streams[cpu].set_mode(Mode::Os);
        let (kernel, rng, b) = (&self.kernel, &mut self.rng, &mut self.streams[cpu]);
        kernel.exec_load(b, rng, cpu, pid, text, zero, frame_base);
        self.streams[cpu].set_mode(Mode::User);
        self.procs[cpu] = UserProc::new(&self.kernel, pid);
        for k in 0..(text + zero) {
            self.remember_frame(cpu, (frame_base + k) % N_FRAMES);
        }
    }

    fn do_syscall(&mut self, cpu: usize) {
        self.os(cpu, |s| {
            let pid = s.procs[cpu].pid;
            let (kernel, rng, b) = (&s.kernel, &mut s.rng, &mut s.streams[cpu]);
            kernel.syscall_entry(b, rng, cpu, pid);
        });
    }

    fn do_file_op(&mut self, cpu: usize, medium: bool) {
        let len = if medium {
            self.rng.gen_range(128..512u32) * 8 // 1–4 KB
        } else {
            self.rng.gen_range(8..64u32) * 8 // 64–512 B
        };
        let read = self.rng.gen_bool(0.65);
        let buf_n = self.hot_buffer(cpu);
        self.os(cpu, |s| {
            let pid = s.procs[cpu].pid;
            let (kernel, rng, b) = (&s.kernel, &mut s.rng, &mut s.streams[cpu]);
            kernel.syscall_entry(b, rng, cpu, pid);
            if read {
                kernel.file_read(b, rng, cpu, pid, len, buf_n);
            } else {
                kernel.file_write(b, rng, cpu, pid, len, buf_n);
            }
        });
    }

    fn do_ctx_switch(&mut self, cpu: usize) {
        let to = self.rng.gen_range(4..24u32);
        self.os(cpu, |s| {
            let (kernel, rng, b) = (&s.kernel, &mut s.rng, &mut s.streams[cpu]);
            kernel.context_switch(b, rng, cpu, to);
        });
    }

    fn do_timer(&mut self, cpu: usize) {
        self.os(cpu, |s| {
            let pid = s.procs[cpu].pid;
            let (kernel, rng, b) = (&s.kernel, &mut s.rng, &mut s.streams[cpu]);
            kernel.timer_tick(b, rng, cpu, pid);
        });
    }

    fn gang_barrier(&mut self, round: u32) {
        let k = (round as usize) % N_BARRIERS;
        let addr = self.kernel.layout.barrier_addr(k);
        for cpu in 0..self.n_cpus {
            self.streams[cpu].set_mode(Mode::Os);
            self.streams[cpu].barrier(BarrierId(k as u16), addr, self.n_cpus as u8);
            self.streams[cpu].set_mode(Mode::User);
        }
    }

    fn xproc_round(&mut self) {
        if self.n_cpus < 2 {
            return;
        }
        let n = self.count(self.rates.xproc_pairs);
        for _ in 0..n {
            let sender = self.rng.gen_range(0..self.n_cpus);
            let mut target = self.rng.gen_range(0..self.n_cpus);
            if target == sender {
                target = (target + 1) % self.n_cpus;
            }
            self.os(sender, |s| {
                let (kernel, b) = (&s.kernel, &mut s.streams[sender]);
                kernel.xproc_send(b, target);
            });
            self.os(target, |s| {
                let (kernel, b) = (&s.kernel, &mut s.streams[target]);
                kernel.xproc_handle(b, target);
                let (kernel, rng, b) = (&s.kernel, &mut s.rng, &mut s.streams[target]);
                kernel.xproc_body(b, rng, target);
            });
        }
    }

    fn user_segment(&mut self, cpu: usize, steps: u32, round: u32) {
        // Which program runs on this CPU this round is workload-specific.
        enum Prog {
            Trfd,
            Arc2d,
            Cc1,
            Fsck,
            Shell,
        }
        let prog = match self.workload {
            Workload::Trfd4 => Prog::Trfd,
            Workload::TrfdMake => {
                if round.is_multiple_of(self.rates.gang_every) {
                    Prog::Trfd
                } else {
                    Prog::Cc1
                }
            }
            Workload::Arc2dFsck => {
                if round % 3 == 2 && cpu == (round as usize / 3) % self.n_cpus {
                    Prog::Fsck
                } else {
                    Prog::Arc2d
                }
            }
            Workload::Shell => Prog::Shell,
        };
        let p = &mut self.procs[cpu];
        let b = &mut self.streams[cpu];
        for _ in 0..steps {
            match prog {
                Prog::Trfd => p.trfd_step(b, &self.users.trfd),
                Prog::Arc2d => p.arc2d_step(b, &self.users.arc2d, &mut self.rng),
                Prog::Cc1 => p.cc1_step(b, &self.users.cc1, &mut self.rng),
                Prog::Fsck => p.fsck_step(b, &self.users.fsck, &mut self.rng),
                Prog::Shell => p.shell_step(b, &self.users.shell, &mut self.rng),
            }
        }
    }

    fn round(&mut self, r: u32) {
        let rates = self.rates;
        let gang = rates.gang_every > 0 && r.is_multiple_of(rates.gang_every);
        // Round preamble: context switches, gang barrier.
        for cpu in 0..self.n_cpus {
            for _ in 0..rates.ctx_switches {
                self.do_ctx_switch(cpu);
            }
        }
        if gang {
            self.gang_barrier(r);
        }
        // Pre-sample per-CPU service counts for this round.
        let steps_per_seg = (rates.user_steps / rates.segments).max(1);
        for seg in 0..rates.segments {
            for cpu in 0..self.n_cpus {
                self.user_segment(cpu, steps_per_seg, r);
                // System calls happen throughout the quantum.
                for _ in 0..self.count(rates.syscalls / f64::from(rates.segments)) {
                    self.do_syscall(cpu);
                }
                // Paging and process-management activity clusters in one
                // burst per CPU per round, so a CPU's consecutive
                // allocation-lock acquisitions keep the lock line local
                // (the paper: "most operating system locks tend to be
                // acquired several times in a row by the same processor").
                if seg == (cpu as u32 + r) % rates.segments {
                    let pf = rates.pf_zero + rates.pf_pagein + rates.pf_soft;
                    for _ in 0..self.count(pf) {
                        self.do_page_fault(cpu);
                    }
                    for _ in 0..self.count(rates.chain_copy) {
                        self.do_chain_copy(cpu);
                    }
                    for _ in 0..self.count(rates.user_copy) {
                        self.do_user_copy(cpu);
                    }
                    for _ in 0..self.count(rates.forks) {
                        self.do_fork(cpu);
                    }
                    for _ in 0..self.count(rates.execs) {
                        self.do_exec(cpu);
                    }
                }
                // File activity clusters in a different burst.
                if seg == (cpu as u32 + r + rates.segments / 2) % rates.segments {
                    for _ in 0..self.count(rates.file_small) {
                        self.do_file_op(cpu, false);
                    }
                    for _ in 0..self.count(rates.file_med) {
                        self.do_file_op(cpu, true);
                    }
                }
            }
            // Mid-round gang barriers (TRFD is synchronization-intensive;
            // several barriers may fall between two segments).
            if gang && seg > 0 {
                let per_seg = rates.extra_barriers / (rates.segments - 1);
                let extra = u32::from(seg <= rates.extra_barriers % (rates.segments - 1));
                for k in 0..per_seg + extra {
                    self.gang_barrier(r + seg + k);
                }
            }
        }
        self.xproc_round();
        for cpu in 0..self.n_cpus {
            self.do_timer(cpu);
            let jitter = self.rng.gen_range(0..rates.idle_cycles / 4 + 1);
            self.streams[cpu].idle(rates.idle_cycles + jitter);
        }
        // Periodic pager sweep (reads all counters: §5.1's aggregate use).
        if r % 6 == 3 {
            let cpu = (r as usize / 6) % self.n_cpus;
            self.os(cpu, |s| {
                let (kernel, rng, b) = (&s.kernel, &mut s.rng, &mut s.streams[cpu]);
                kernel.pager_sweep(b, rng);
            });
        }
    }

    fn take_meta(&mut self) -> TraceMeta {
        let l = &self.kernel.layout;
        let kernel_data = vec![
            (l.static_base, 4 * oscache_trace::PAGE_SIZE),
            (
                l.proc_table,
                oscache_kernel::N_PROCS as u32 * oscache_kernel::PROC_ENTRY_SIZE,
            ),
            (
                l.page_tables,
                oscache_kernel::N_PROCS as u32 * oscache_kernel::PTES_PER_PROC * 4,
            ),
            (l.kstacks, 32 * oscache_trace::PAGE_SIZE),
            (l.runq_nodes, 16 * oscache_trace::PAGE_SIZE),
            (l.buffer_cache, N_BUFFERS * oscache_trace::PAGE_SIZE),
        ];
        TraceMeta {
            workload: self.workload.name().to_string(),
            code: std::mem::take(&mut self.code),
            vars: self.kernel.layout.vars.clone(),
            kernel_data,
        }
    }

    fn run(mut self) -> ChunkedTrace {
        for r in 0..self.rounds {
            self.round(r);
        }
        let meta = self.take_meta();
        let mut trace = ChunkedTrace::new(self.n_cpus, meta);
        for (k, s) in self.streams.into_iter().enumerate() {
            trace.streams[k] = s.finish();
        }
        trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oscache_trace::Event;

    fn small(w: Workload) -> ChunkedTrace {
        build_chunked(
            w,
            BuildOptions {
                scale: 0.05,
                seed: 1,
                ..Default::default()
            },
        )
    }

    #[test]
    fn all_workloads_build() {
        for w in Workload::all() {
            let t = small(w);
            assert_eq!(t.n_cpus(), 4);
            assert!(t.total_events() > 1000, "{w}: too few events");
            assert_eq!(t.meta.workload, w.name());
        }
    }

    #[test]
    fn spilled_build_equals_in_memory_build() {
        let opts = BuildOptions {
            scale: 0.05,
            seed: 1,
            ..Default::default()
        };
        let w = Workload::Trfd4;
        let key = opts.key(w);
        assert_eq!(
            key.options().key(w),
            key,
            "TraceBuildKey::options must invert key"
        );
        let inline = build_chunked(w, opts);
        let store = oscache_trace::SpillStore::create(
            "workload-spill-test",
            oscache_trace::StoreIdentity {
                scale_bits: key.scale_bits,
                seed: key.seed,
                n_cpus: key.n_cpus as u32,
            },
            opts.n_cpus,
            None,
        )
        .expect("spill store");
        let budget = oscache_trace::MemBudget::new_mb(0);
        let spilled = build_chunked_spilled(w, opts, &store, &budget);
        assert!(spilled.spilled_chunks() > 0, "nothing spilled at 0 budget");
        assert_eq!(spilled.total_events(), inline.total_events());
        for cpu in 0..opts.n_cpus {
            assert_eq!(spilled.streams[cpu], inline.streams[cpu], "cpu {cpu}");
        }
        assert_eq!(budget.spilled_bytes(), inline.byte_len() as u64);
    }

    #[test]
    fn builds_are_deterministic() {
        let a = small(Workload::Shell);
        let b = small(Workload::Shell);
        assert_eq!(a.total_events(), b.total_events());
        for cpu in 0..4 {
            assert!(a.streams[cpu].iter().eq(b.streams[cpu].iter()), "cpu {cpu}");
        }
    }

    #[test]
    fn barriers_are_consistent_across_cpus() {
        for w in Workload::all() {
            let t = small(w);
            let counts: Vec<usize> = t
                .streams
                .iter()
                .map(|s| {
                    s.iter()
                        .filter(|e| matches!(e, Event::Barrier { .. }))
                        .count()
                })
                .collect();
            assert!(
                counts.iter().all(|&c| c == counts[0]),
                "{w}: barrier counts differ: {counts:?}"
            );
        }
    }

    #[test]
    fn trfd4_has_mostly_page_sized_blocks() {
        let t = build_chunked(
            Workload::Trfd4,
            BuildOptions {
                scale: 0.2,
                seed: 2,
                ..Default::default()
            },
        );
        let mut page = 0u32;
        let mut other = 0u32;
        for s in &t.streams {
            for e in s {
                if let Event::BlockOpBegin { op } = e {
                    if op.is_page_sized() {
                        page += 1;
                    } else {
                        other += 1;
                    }
                }
            }
        }
        assert!(page > 4 * other, "page {page} vs other {other}");
    }

    #[test]
    fn shell_has_mostly_small_blocks() {
        let t = build_chunked(
            Workload::Shell,
            BuildOptions {
                scale: 0.2,
                seed: 2,
                ..Default::default()
            },
        );
        let mut small_ops = 0u32;
        let mut total = 0u32;
        for s in &t.streams {
            for e in s {
                if let Event::BlockOpBegin { op } = e {
                    total += 1;
                    if op.len < 1024 {
                        small_ops += 1;
                    }
                }
            }
        }
        assert!(total > 0);
        assert!(
            f64::from(small_ops) / f64::from(total) > 0.45,
            "small {small_ops}/{total}"
        );
    }

    #[test]
    fn scale_controls_size() {
        let s1 = small(Workload::Trfd4).total_events();
        let s2 = build_chunked(
            Workload::Trfd4,
            BuildOptions {
                scale: 0.1,
                seed: 1,
                ..Default::default()
            },
        )
        .total_events();
        assert!(s2 > s1, "{s2} should exceed {s1}");
    }

    #[test]
    fn modes_alternate_and_locks_balance() {
        // finish() inside build_chunked() already asserts lock balance;
        // check that both modes appear.
        let t = small(Workload::TrfdMake);
        for s in &t.streams {
            let os = s
                .iter()
                .any(|e| matches!(e, Event::SetMode { mode: Mode::Os }));
            let user = s
                .iter()
                .any(|e| matches!(e, Event::SetMode { mode: Mode::User }));
            assert!(os && user);
        }
    }
}
