//! Simulation statistics.
//!
//! Every quantity the paper's tables and figures report is derived from the
//! counters collected here: cycle buckets split by execution mode (the
//! paper's user/OS decomposition), read-miss classification (block
//! operation / coherence / other; Table 2), the coherence sub-breakdown
//! (Table 5), block-operation probes (Table 3), displacement/reuse tracking
//! (§4.1.3), per-site miss attribution (the §6 hot-spot analysis), and bus
//! traffic (§5.2's update-traffic comparison).
//!
//! No counter is hashed. Sites and data classes are small dense ids, so
//! their counters are tables indexed by the id; lock waits and conflict
//! pairs are [`SortedCounts`], short key-sorted lists. Every journal
//! record serializes these counters and every report sums them across
//! CPUs with [`SimStats::total`], so merging is element-wise adds and
//! linear merges of sorted lists, and the journal writes the lists in the
//! order they are stored.

use crate::BusStats;
use oscache_trace::{CoherenceCategory, DataClass, Mode};
use std::cmp::Ordering;

/// A counter split into user and OS components.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ModeSplit {
    /// User-mode amount.
    pub user: u64,
    /// OS-mode amount.
    pub os: u64,
}

impl ModeSplit {
    /// Adds `v` to the component for `mode`.
    #[inline]
    pub fn add(&mut self, mode: Mode, v: u64) {
        match mode {
            Mode::User => self.user += v,
            Mode::Os => self.os += v,
        }
    }

    /// The component for `mode`.
    #[inline]
    pub fn get(&self, mode: Mode) -> u64 {
        match mode {
            Mode::User => self.user,
            Mode::Os => self.os,
        }
    }

    /// Sum of both components.
    #[inline]
    pub fn total(&self) -> u64 {
        self.user + self.os
    }
}

impl std::ops::AddAssign for ModeSplit {
    fn add_assign(&mut self, rhs: Self) {
        self.user += rhs.user;
        self.os += rhs.os;
    }
}

/// Counters keyed by `K`: a list of `(key, count)` entries sorted by key,
/// each key at most once. A key is present once it has been counted, even
/// with a count of 0. The keys of a run are few (a few dozen locks, pairs
/// of 17 classes), so a binary search finds an entry and two lists merge
/// in one linear pass.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SortedCounts<K>(Vec<(K, u64)>);

impl<K> Default for SortedCounts<K> {
    fn default() -> Self {
        SortedCounts(Vec::new())
    }
}

impl<K: Copy + Ord> SortedCounts<K> {
    /// Adds `n` to `key`'s count, entering the key if it is absent (also
    /// when `n` is 0).
    pub fn add(&mut self, key: K, n: u64) {
        match self.0.binary_search_by_key(&key, |&(k, _)| k) {
            Ok(i) => self.0[i].1 += n,
            Err(i) => self.0.insert(i, (key, n)),
        }
    }

    /// The count of `key`, or `None` if it was never counted.
    pub fn get(&self, key: K) -> Option<u64> {
        self.0
            .binary_search_by_key(&key, |&(k, _)| k)
            .ok()
            .map(|i| self.0[i].1)
    }

    /// The entries, in key order.
    pub fn entries(&self) -> &[(K, u64)] {
        &self.0
    }

    /// Adds every count of `other` into this list.
    pub fn merge(&mut self, other: &SortedCounts<K>) {
        if other.0.is_empty() {
            return;
        }
        let (a, b) = (&self.0, &other.0);
        let mut merged = Vec::with_capacity(a.len() + b.len());
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            let ((ka, na), (kb, nb)) = (a[i], b[j]);
            merged.push(match ka.cmp(&kb) {
                Ordering::Less => {
                    i += 1;
                    (ka, na)
                }
                Ordering::Greater => {
                    j += 1;
                    (kb, nb)
                }
                Ordering::Equal => {
                    i += 1;
                    j += 1;
                    (ka, na + nb)
                }
            });
        }
        merged.extend_from_slice(&a[i..]);
        merged.extend_from_slice(&b[j..]);
        self.0 = merged;
    }
}

impl<K: Copy + Ord> FromIterator<(K, u64)> for SortedCounts<K> {
    /// Collects entries in any order; a repeated key's counts add up.
    fn from_iter<I: IntoIterator<Item = (K, u64)>>(iter: I) -> Self {
        let mut entries: Vec<(K, u64)> = iter.into_iter().collect();
        entries.sort_by_key(|&(k, _)| k);
        entries.dedup_by(|later, kept| {
            let same = later.0 == kept.0;
            if same {
                kept.1 += later.1;
            }
            same
        });
        SortedCounts(entries)
    }
}

/// Why a primary-data-cache read miss happened (Table 2 taxonomy).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MissKind {
    /// The miss occurred during a block operation (§4).
    BlockOp,
    /// The line was removed by coherence activity (remote write), §5.
    Coherence(CoherenceCategory),
    /// Everything else: cold, capacity, and (mostly) conflict misses, §6.
    Other,
}

/// Per-CPU counters.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CpuStats {
    // ---- cycle buckets (mutually exclusive; they sum to elapsed time) ----
    /// Instruction-execution cycles (includes the 1-cycle base cost of each
    /// load/store and of inserted prefetch instructions).
    pub exec_cycles: ModeSplit,
    /// Stall on instruction-cache misses.
    pub imiss_cycles: ModeSplit,
    /// Stall on data read misses not overlapped by prefetches.
    pub dread_cycles: ModeSplit,
    /// Stall on write-buffer overflow.
    pub dwrite_cycles: ModeSplit,
    /// Stall on data reads partially overlapped by an in-flight prefetch.
    pub pref_cycles: ModeSplit,
    /// Time spent waiting at barriers and for contended locks.
    pub sync_cycles: ModeSplit,
    /// Idle-loop time.
    pub idle_cycles: u64,

    // ---- reference counts ----
    /// Scalar data reads issued.
    pub dreads: ModeSplit,
    /// Scalar data writes issued.
    pub dwrites: ModeSplit,
    /// Primary-data-cache read misses (the paper's miss unit, §3).
    pub l1d_read_misses: ModeSplit,
    /// Instruction fetch line misses in the L1I.
    pub l1i_misses: ModeSplit,

    // ---- OS read-miss classification (Table 2 / 5) ----
    /// OS read misses during block operations.
    pub os_miss_blockop: u64,
    /// OS coherence read misses, by Table 5 category.
    pub os_miss_coherence: [u64; 5],
    /// OS read misses from all other causes.
    pub os_miss_other: u64,
    /// OS read misses attributed to the code site executing at miss time,
    /// indexed by raw [`oscache_trace::SiteId`] value (hot-spot analysis,
    /// §6), grown to the largest site that missed.
    pub os_miss_by_site: Vec<u64>,
    /// OS read misses attributed to the kernel structure being accessed
    /// (the paper's §2.2 data-structure attribution), indexed by the
    /// class's byte (`class as usize`).
    pub os_miss_by_class: [u64; DataClass::COUNT],

    // ---- displacement / reuse (all modes; Table 3 rows 7–10) ----
    /// Misses on block-displaced lines, during a block operation.
    pub displ_inside: u64,
    /// Misses on block-displaced lines, outside block operations.
    pub displ_outside: u64,
    /// Misses on bypassed block data, during a block operation.
    pub reuse_inside: u64,
    /// Misses on bypassed block data, outside block operations.
    pub reuse_outside: u64,

    // ---- Figure 1 decomposition ----
    /// Read-miss stall incurred inside block operations.
    pub blk_read_stall: u64,
    /// Write-buffer stall incurred inside block operations.
    pub blk_write_stall: u64,
    /// Execution cycles spent inside block operations.
    pub blk_exec_cycles: u64,
    /// Stall of displacement misses outside block operations.
    pub blk_displ_stall: u64,

    // ---- block-operation probes (Table 3 rows 1–6) ----
    /// Source-block L1D lines examined at op start.
    pub blk_src_lines: u64,
    /// …of which already resident in the L1D.
    pub blk_src_lines_cached: u64,
    /// Destination-block L2 lines examined at op start.
    pub blk_dst_lines: u64,
    /// …already in the local L2 in state Modified or Exclusive.
    pub blk_dst_l2_owned: u64,
    /// …already in the local L2 in state Shared.
    pub blk_dst_l2_shared: u64,
    /// Block operations by size bucket: `[= 4 KB, 1..4 KB, < 1 KB]`.
    pub blk_size_buckets: [u64; 3],
    /// Total block operations executed.
    pub blk_ops: u64,

    // ---- lock contention ----
    /// Cycles spent waiting for each lock, keyed by raw
    /// [`oscache_trace::LockId`] value (the "10 most active locks" of
    /// §5.2 are the head of this distribution). A waiter released at its
    /// own clock enters its lock with a wait of 0.
    pub lock_wait_cycles: SortedCounts<u16>,

    // ---- conflict-pair analysis (§6) ----
    /// L1D evictions between distinct kernel structures, keyed by
    /// `(victim class, evictor class)` — the paper's conflict-pair
    /// analysis, used to decide whether any two structures conflict
    /// consistently enough to justify relocation.
    pub conflict_pairs: SortedCounts<(DataClass, DataClass)>,

    // ---- prefetching ----
    /// Software prefetches issued to the memory system.
    pub prefetches_issued: u64,
    /// Demand reads fully covered by a completed prefetch.
    pub prefetch_full_hits: u64,
    /// Demand reads that waited on an in-flight prefetch.
    pub prefetch_partial_hits: u64,
}

impl CpuStats {
    /// Total elapsed cycles accounted in buckets.
    pub fn accounted_cycles(&self) -> u64 {
        self.exec_cycles.total()
            + self.imiss_cycles.total()
            + self.dread_cycles.total()
            + self.dwrite_cycles.total()
            + self.pref_cycles.total()
            + self.sync_cycles.total()
            + self.idle_cycles
    }

    /// All OS read misses across the Table 2 taxonomy.
    pub fn os_read_misses(&self) -> u64 {
        self.os_miss_blockop + self.os_miss_coherence.iter().sum::<u64>() + self.os_miss_other
    }

    /// Records a classified OS read miss.
    pub fn count_os_miss(&mut self, kind: MissKind, site: u16, class: DataClass) {
        match kind {
            MissKind::BlockOp => self.os_miss_blockop += 1,
            MissKind::Coherence(cat) => self.os_miss_coherence[cat as usize] += 1,
            MissKind::Other => self.os_miss_other += 1,
        }
        let idx = usize::from(site);
        if idx >= self.os_miss_by_site.len() {
            self.os_miss_by_site.resize(idx + 1, 0);
        }
        self.os_miss_by_site[idx] += 1;
        self.os_miss_by_class[class as usize] += 1;
    }

    /// OS read misses attributed to `site` (0 for never-seen sites).
    #[inline]
    pub fn os_misses_at_site(&self, site: u16) -> u64 {
        self.os_miss_by_site
            .get(usize::from(site))
            .copied()
            .unwrap_or(0)
    }

    /// Merges another CPU's counters into this one (aggregation).
    pub fn merge(&mut self, o: &CpuStats) {
        self.exec_cycles += o.exec_cycles;
        self.imiss_cycles += o.imiss_cycles;
        self.dread_cycles += o.dread_cycles;
        self.dwrite_cycles += o.dwrite_cycles;
        self.pref_cycles += o.pref_cycles;
        self.sync_cycles += o.sync_cycles;
        self.idle_cycles += o.idle_cycles;
        self.dreads += o.dreads;
        self.dwrites += o.dwrites;
        self.l1d_read_misses += o.l1d_read_misses;
        self.l1i_misses += o.l1i_misses;
        self.os_miss_blockop += o.os_miss_blockop;
        for i in 0..5 {
            self.os_miss_coherence[i] += o.os_miss_coherence[i];
        }
        self.os_miss_other += o.os_miss_other;
        if o.os_miss_by_site.len() > self.os_miss_by_site.len() {
            self.os_miss_by_site.resize(o.os_miss_by_site.len(), 0);
        }
        for (site, &n) in o.os_miss_by_site.iter().enumerate() {
            self.os_miss_by_site[site] += n;
        }
        for (mine, &n) in self.os_miss_by_class.iter_mut().zip(&o.os_miss_by_class) {
            *mine += n;
        }
        self.lock_wait_cycles.merge(&o.lock_wait_cycles);
        self.displ_inside += o.displ_inside;
        self.displ_outside += o.displ_outside;
        self.reuse_inside += o.reuse_inside;
        self.reuse_outside += o.reuse_outside;
        self.blk_read_stall += o.blk_read_stall;
        self.blk_write_stall += o.blk_write_stall;
        self.blk_exec_cycles += o.blk_exec_cycles;
        self.blk_displ_stall += o.blk_displ_stall;
        self.blk_src_lines += o.blk_src_lines;
        self.blk_src_lines_cached += o.blk_src_lines_cached;
        self.blk_dst_lines += o.blk_dst_lines;
        self.blk_dst_l2_owned += o.blk_dst_l2_owned;
        self.blk_dst_l2_shared += o.blk_dst_l2_shared;
        for i in 0..3 {
            self.blk_size_buckets[i] += o.blk_size_buckets[i];
        }
        self.blk_ops += o.blk_ops;
        self.conflict_pairs.merge(&o.conflict_pairs);
        self.prefetches_issued += o.prefetches_issued;
        self.prefetch_full_hits += o.prefetch_full_hits;
        self.prefetch_partial_hits += o.prefetch_partial_hits;
    }
}

/// Full simulation result: per-CPU counters, bus traffic, and wall time.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SimStats {
    /// Per-CPU counters.
    pub cpus: Vec<CpuStats>,
    /// Bus traffic.
    pub bus: BusStats,
    /// Final simulated time of each CPU.
    pub cpu_times: Vec<u64>,
}

impl SimStats {
    /// Aggregate of all CPUs' counters.
    pub fn total(&self) -> CpuStats {
        let mut t = CpuStats::default();
        for c in &self.cpus {
            t.merge(c);
        }
        t
    }

    /// Makespan: the largest per-CPU finish time.
    pub fn makespan(&self) -> u64 {
        self.cpu_times.iter().copied().max().unwrap_or(0)
    }

    /// Sum over CPUs of all accounted cycles (≈ `n_cpus × makespan` when
    /// CPUs finish together).
    pub fn total_cpu_cycles(&self) -> u64 {
        self.cpus.iter().map(CpuStats::accounted_cycles).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_split_arithmetic() {
        let mut m = ModeSplit::default();
        m.add(Mode::Os, 5);
        m.add(Mode::User, 3);
        m.add(Mode::Os, 2);
        assert_eq!(m.os, 7);
        assert_eq!(m.user, 3);
        assert_eq!(m.total(), 10);
        assert_eq!(m.get(Mode::Os), 7);
        let mut n = ModeSplit { user: 1, os: 1 };
        n += m;
        assert_eq!(n.total(), 12);
    }

    #[test]
    fn os_miss_classification_counts() {
        let mut s = CpuStats::default();
        s.count_os_miss(MissKind::BlockOp, 0, DataClass::PageFrame);
        s.count_os_miss(
            MissKind::Coherence(CoherenceCategory::Barriers),
            1,
            DataClass::BarrierVar,
        );
        s.count_os_miss(
            MissKind::Coherence(CoherenceCategory::Locks),
            1,
            DataClass::LockVar,
        );
        s.count_os_miss(MissKind::Other, 2, DataClass::PageTable);
        assert_eq!(s.os_read_misses(), 4);
        assert_eq!(s.os_miss_blockop, 1);
        assert_eq!(s.os_miss_coherence[CoherenceCategory::Barriers as usize], 1);
        assert_eq!(s.os_miss_coherence[CoherenceCategory::Locks as usize], 1);
        assert_eq!(s.os_miss_other, 1);
        assert_eq!(s.os_misses_at_site(1), 2);
        assert_eq!(s.os_misses_at_site(9), 0);
    }

    #[test]
    fn merge_adds_everything() {
        let mut a = CpuStats::default();
        a.exec_cycles.add(Mode::Os, 10);
        a.idle_cycles = 5;
        a.count_os_miss(MissKind::Other, 3, DataClass::PageTable);
        let mut b = CpuStats::default();
        b.exec_cycles.add(Mode::Os, 7);
        b.count_os_miss(MissKind::Other, 3, DataClass::PageTable);
        a.merge(&b);
        assert_eq!(a.exec_cycles.os, 17);
        assert_eq!(a.os_miss_other, 2);
        assert_eq!(a.os_misses_at_site(3), 2);
        assert_eq!(a.accounted_cycles(), 22);
    }

    #[test]
    fn simstats_aggregation() {
        let mut s = SimStats {
            cpus: vec![CpuStats::default(), CpuStats::default()],
            ..Default::default()
        };
        s.cpus[0].idle_cycles = 3;
        s.cpus[1].idle_cycles = 4;
        s.cpu_times = vec![100, 120];
        assert_eq!(s.total().idle_cycles, 7);
        assert_eq!(s.makespan(), 120);
        assert_eq!(s.total_cpu_cycles(), 7);
    }
}
