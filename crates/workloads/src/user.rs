//! User-level application models.
//!
//! Each of the paper's workloads (§2.3) runs real applications — TRFD and
//! ARC2D (hand-parallelized Perfect Club codes), the second phase of the C
//! compiler, `fsck`, and a shell-command mix. The models here generate
//! user-mode reference streams with the cache behaviour that matters for
//! Table 1 (the user share of references and misses): each program works
//! mostly in a cache-resident hot region while streaming more slowly
//! through a larger data set, giving the few-percent user miss rates the
//! paper measures, with per-program differences in footprint and access
//! shape.

use oscache_kernel::Kernel;
use oscache_trace::rng::Rng;
use oscache_trace::{Addr, CodeLayout, DataClass, SiteId, StreamBuilder};

/// One user program's code and data placement.
#[derive(Clone, Debug)]
pub struct UserProgram {
    /// The program's site (hot-spot attribution treats user code as one
    /// site per program).
    pub site: SiteId,
    /// Basic blocks of the compute kernel.
    blocks: Vec<oscache_trace::BlockId>,
    /// Basic blocks executed per data-access group (compute intensity).
    depth: usize,
}

/// The set of user programs a workload can run, with code registered in
/// the shared [`CodeLayout`].
#[derive(Clone, Debug)]
pub struct UserPrograms {
    /// TRFD: matrix multiplies and data exchanges.
    pub trfd: UserProgram,
    /// ARC2D: sparse linear systems (indexed accesses).
    pub arc2d: UserProgram,
    /// cc1: the C compiler's second phase (pointer-intensive).
    pub cc1: UserProgram,
    /// fsck: file-system check (I/O driven, small compute).
    pub fsck: UserProgram,
    /// Shell commands (find, ls, finger, …): small compute bursts.
    pub shell: UserProgram,
}

impl UserPrograms {
    /// Registers all user program code after the kernel text.
    pub fn new(code: &mut CodeLayout, kernel: &Kernel) -> Self {
        let mut cursor = (kernel.code.text_end.0 + 0xffff) & !0xffff;
        let mut prog = |code: &mut CodeLayout, name: &'static str, nblocks: u32, depth: usize| {
            let site = code.add_site(name, false);
            let mut blocks = Vec::new();
            for k in 0..nblocks {
                blocks.push(code.add_block(Addr(cursor + k * 64), 12, site));
            }
            cursor += nblocks * 64;
            cursor = (cursor + 4095) & !4095;
            UserProgram {
                site,
                blocks,
                depth,
            }
        };
        UserPrograms {
            trfd: prog(code, "user_trfd", 24, 5),
            arc2d: prog(code, "user_arc2d", 32, 4),
            cc1: prog(code, "user_cc1", 96, 3),
            fsck: prog(code, "user_fsck", 20, 2),
            shell: prog(code, "user_shell", 40, 2),
        }
    }
}

impl UserProgram {
    fn exec_step(&self, b: &mut StreamBuilder, k: usize) {
        // `depth` basic blocks of compute per data-access group: numeric
        // codes do a few dozen instructions of arithmetic per memory
        // burst, utilities far less.
        for j in 0..self.depth {
            b.exec(self.blocks[(self.depth * k + j) % self.blocks.len()]);
        }
    }
}

/// Per-process user-side state (array cursors, heap shape).
#[derive(Clone, Debug)]
pub struct UserProc {
    /// Process id (selects the address-space base).
    pub pid: u32,
    /// Data-segment base.
    pub data: Addr,
    /// Streaming cursor into the data segment.
    cursor: u32,
    /// Secondary sequential cursor (advances only when used).
    seq: u32,
    /// Execution step counter (drives block selection).
    step: usize,
}

/// Size of each program's cache-resident hot region, in bytes. Must fit
/// comfortably in the 32-KB L1D together with some streamed lines.
const HOT: u32 = 4 * 1024;

impl UserProc {
    /// Creates the state for process `pid` of `kernel`'s address map.
    pub fn new(kernel: &Kernel, pid: u32) -> Self {
        UserProc {
            pid,
            data: kernel.layout.user_data(pid),
            cursor: 0,
            seq: 0,
            step: 0,
        }
    }

    #[inline]
    fn hot(&self, off: u32) -> Addr {
        self.data.offset(off % HOT)
    }

    /// Like [`Self::hot`] but within the first `size` bytes — programs
    /// differ in how tight their inner working set is.
    #[inline]
    fn hot_in(&self, off: u32, size: u32) -> Addr {
        self.data.offset(off % size)
    }

    /// Current streaming position (bytes into the streamed operand) — the
    /// most recently produced data, used as block-copy source material.
    pub fn stream_pos(&self) -> u32 {
        self.cursor
    }

    /// One TRFD compute step: the matrix-multiply inner loop — repeated
    /// accesses to a cache-resident operand tile plus a slow stream over
    /// the large operand and result arrays.
    pub fn trfd_step(&mut self, b: &mut StreamBuilder, prog: &UserProgram) {
        prog.exec_step(b, self.step);
        let c = self.cursor;
        // Hot tile: six reads over a resident 2-KB operand tile.
        for k in 0..6u32 {
            b.read(self.hot(c.wrapping_mul(13) + k * 68), DataClass::UserData);
        }
        // Streaming operand: word-by-word on alternate steps.
        if self.step.is_multiple_of(2) {
            b.read(
                self.data.offset(64 * 1024 + self.seq % (96 * 1024)),
                DataClass::UserData,
            );
            self.seq = self.seq.wrapping_add(4);
        }
        if self.step.is_multiple_of(4) {
            b.write(
                self.data.offset(224 * 1024 + c % (64 * 1024)),
                DataClass::UserData,
            );
        }
        self.cursor = c.wrapping_add(4);
        self.step += 1;
    }

    /// One ARC2D step: sparse solver — index-vector read plus indirect
    /// accesses into a slowly-sliding window, with a hot coefficient
    /// region.
    pub fn arc2d_step(&mut self, b: &mut StreamBuilder, prog: &UserProgram, rng: &mut impl Rng) {
        prog.exec_step(b, self.step);
        let c = self.cursor;
        for k in 0..5u32 {
            b.read(
                self.hot_in(c.wrapping_mul(7) + k * 52, 3072),
                DataClass::UserData,
            );
        }
        // Index vector: sequential.
        if self.step.is_multiple_of(3) {
            b.read(
                self.data.offset(16 * 1024 + self.seq % (16 * 1024)),
                DataClass::UserData,
            );
            self.seq = self.seq.wrapping_add(4);
        }
        // Indirect access: mostly within the hot coefficient tile, with a
        // minority landing in a slowly-sliding 4-KB window.
        if rng.gen_bool(0.9) {
            b.read(
                self.hot_in(rng.gen_range(0..192u32) * 16, 3072),
                DataClass::UserData,
            );
        } else {
            let window = 64 * 1024 + ((c / 512) * 16) % (192 * 1024);
            let off = rng.gen_range(0..256u32) * 16;
            b.read(self.data.offset(window + off), DataClass::UserData);
        }
        if self.step.is_multiple_of(3) {
            b.write(
                self.data.offset(320 * 1024 + c % (32 * 1024)),
                DataClass::UserData,
            );
        }
        self.cursor = c.wrapping_add(4);
        self.step += 1;
    }

    /// One cc1 step: symbol-table lookups in a hot region plus pointer
    /// chases across a slowly-growing heap window.
    pub fn cc1_step(&mut self, b: &mut StreamBuilder, prog: &UserProgram, rng: &mut impl Rng) {
        prog.exec_step(b, self.step);
        let c = self.cursor;
        // Hot symbol table.
        for k in 0..5u32 {
            b.read(
                self.hot_in(c.wrapping_mul(29) + k * 36, 2048),
                DataClass::UserData,
            );
        }
        // Heap chase: recently-allocated nodes (the hot region) dominate;
        // a minority of chases land in a slowly-sliding 4-KB window.
        let off;
        let target = if rng.gen_bool(0.9) {
            off = rng.gen_range(0..128u32) * 16;
            self.hot_in(off, 2048)
        } else {
            let window = 32 * 1024 + ((c / 256) * 16) % (256 * 1024);
            off = rng.gen_range(0..256u32) * 16;
            self.data.offset(window + off)
        };
        b.read(target, DataClass::UserData);
        if rng.gen_bool(0.3) {
            b.write(target, DataClass::UserData);
        }
        // Stack frame churn: stays resident.
        b.write(self.data.offset(16 * 1024 + c % 2048), DataClass::UserStack);
        self.cursor = c.wrapping_add(4);
        self.step += 1;
    }

    /// One fsck step: inode/bitmap scanning — a resident bitmap plus a
    /// sequential inode sweep.
    pub fn fsck_step(&mut self, b: &mut StreamBuilder, prog: &UserProgram, rng: &mut impl Rng) {
        prog.exec_step(b, self.step);
        let c = self.cursor;
        for k in 0..5u32 {
            b.read(
                self.hot_in(c.wrapping_mul(11) + k * 44, 1536),
                DataClass::UserData,
            );
        }
        // Sequential inode sweep.
        if self.step.is_multiple_of(3) {
            b.read(
                self.data.offset(32 * 1024 + self.seq % (64 * 1024)),
                DataClass::UserData,
            );
            self.seq = self.seq.wrapping_add(4);
        }
        if rng.gen_bool(0.25) {
            b.write(self.data.offset(28 * 1024 + c % 2048), DataClass::UserData);
        }
        self.cursor = c.wrapping_add(4);
        self.step += 1;
    }

    /// One shell-command step: small, mostly-resident working set.
    pub fn shell_step(&mut self, b: &mut StreamBuilder, prog: &UserProgram, rng: &mut impl Rng) {
        prog.exec_step(b, self.step);
        let c = self.cursor;
        for k in 0..5u32 {
            b.read(
                self.hot_in(c.wrapping_mul(5) + k * 60, 1024),
                DataClass::UserData,
            );
        }
        if rng.gen_bool(0.35) {
            b.read(
                self.data.offset(16 * 1024 + self.seq % (24 * 1024)),
                DataClass::UserData,
            );
            self.seq = self.seq.wrapping_add(4);
        }
        b.write(self.data.offset(14 * 1024 + c % 1024), DataClass::UserStack);
        self.cursor = c.wrapping_add(4);
        self.step += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oscache_trace::rng::SmallRng;
    use oscache_trace::{Event, Mode};

    fn setup() -> (Kernel, UserPrograms, CodeLayout) {
        let mut code = CodeLayout::new();
        let k = Kernel::new(&mut code);
        let u = UserPrograms::new(&mut code, &k);
        (k, u, code)
    }

    #[test]
    fn user_code_is_placed_after_kernel_text() {
        let (k, u, code) = setup();
        let first = code.block(u.trfd.blocks[0]).start;
        assert!(first.0 >= k.code.text_end.0);
    }

    #[test]
    fn user_programs_have_distinct_sites() {
        let (_, u, _) = setup();
        let sites = [
            u.trfd.site,
            u.arc2d.site,
            u.cc1.site,
            u.fsck.site,
            u.shell.site,
        ];
        for (i, a) in sites.iter().enumerate() {
            for b in &sites[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn steps_emit_user_mode_references() {
        let (k, u, _) = setup();
        let mut rng = SmallRng::seed_from_u64(1);
        let mut p = UserProc::new(&k, 9);
        let mut b = StreamBuilder::new();
        b.set_mode(Mode::User);
        for _ in 0..10 {
            p.trfd_step(&mut b, &u.trfd);
            p.arc2d_step(&mut b, &u.arc2d, &mut rng);
            p.cc1_step(&mut b, &u.cc1, &mut rng);
            p.fsck_step(&mut b, &u.fsck, &mut rng);
            p.shell_step(&mut b, &u.shell, &mut rng);
        }
        let s = b.finish();
        assert!(s.iter().filter(Event::is_read).count() > 100);
        assert!(s.iter().filter(Event::is_write).count() > 20);
        for e in &s {
            if let Some(c) = e.data_class() {
                assert!(!c.is_kernel_structure(), "unexpected class {c:?}");
            }
        }
    }

    #[test]
    fn hot_region_accesses_stay_within_bounds() {
        let (k, u, _) = setup();
        let mut p = UserProc::new(&k, 3);
        let mut b = StreamBuilder::new();
        for _ in 0..500 {
            p.trfd_step(&mut b, &u.trfd);
        }
        let s = b.finish();
        // The 5 hot reads per step must stay inside [data, data+HOT).
        let hot_reads = s
            .iter()
            .filter(|e| {
                matches!(e, oscache_trace::Event::Read { addr, .. }
                    if addr.0 >= p.data.0 && addr.0 < p.data.0 + HOT)
            })
            .count();
        assert!(hot_reads >= 500 * 6);
    }

    #[test]
    fn distinct_pids_use_distinct_address_spaces() {
        let (k, _, _) = setup();
        let p1 = UserProc::new(&k, 1);
        let p2 = UserProc::new(&k, 2);
        assert_ne!(p1.data, p2.data);
    }
}
