//! Trace-analysis passes: the automated replacement for the "sophisticated
//! performance monitoring tools" the paper says an OS designer needs (§5,
//! §7).
//!
//! Three decisions are derived from reference behaviour alone:
//!
//! 1. **Privatization targets** (§5.1) — words updated read-modify-write by
//!    several CPUs outside critical sections and almost never read
//!    individually: the `vmmeter`-style event counters.
//! 2. **The selective-update set** (§5.2) — barriers, the 10 most active
//!    locks, and a ≤176-byte core of frequently-shared variables, bounded
//!    to 384 bytes total as in the paper.
//! 3. **Miss hot spots** (§6) — the code sites suffering the most OS data
//!    misses in a profiling simulation.

use oscache_memsys::CpuStats;
use oscache_trace::{Addr, ChunkedTrace, CodeLayout, DataClass, Event, MAX_CPUS, WORD_SIZE};
use std::collections::{HashMap, HashSet};

/// Per-word sharing behaviour.
#[derive(Clone, Copy, Debug, Default)]
pub struct WordStats {
    /// Read-modify-write updates (adjacent read+write) per CPU.
    pub rmw: [u32; MAX_CPUS],
    /// Lone reads per CPU.
    pub reads: [u32; MAX_CPUS],
    /// Lone writes per CPU.
    pub writes: [u32; MAX_CPUS],
    /// Accesses made while the CPU held at least one lock.
    pub locked: u32,
    /// All accesses.
    pub total: u32,
}

impl WordStats {
    /// Number of CPUs that update (rmw or write) the word.
    pub fn writer_cpus(&self) -> usize {
        (0..MAX_CPUS)
            .filter(|&c| self.rmw[c] + self.writes[c] > 0)
            .count()
    }

    /// Number of CPUs that read the word (lone reads).
    pub fn reader_cpus(&self) -> usize {
        (0..MAX_CPUS).filter(|&c| self.reads[c] > 0).count()
    }

    /// Total rmw updates.
    pub fn rmw_total(&self) -> u32 {
        self.rmw.iter().sum()
    }

    /// Total lone reads.
    pub fn reads_total(&self) -> u32 {
        self.reads.iter().sum()
    }

    /// Total lone writes.
    pub fn writes_total(&self) -> u32 {
        self.writes.iter().sum()
    }

    /// Fraction of accesses made under a lock.
    pub fn locked_fraction(&self) -> f64 {
        f64::from(self.locked) / f64::from(self.total.max(1))
    }
}

/// The sharing profile of a trace's statically-allocated kernel words.
#[derive(Clone, Debug, Default)]
pub struct SharingProfile {
    /// Per-word statistics (word-aligned addresses of static variables).
    pub words: HashMap<u32, WordStats>,
    /// Lock-acquire counts and lock-word address, by lock id.
    pub locks: HashMap<u16, (u64, Addr)>,
    /// Barrier-word addresses seen.
    pub barriers: HashSet<u32>,
}

/// Scans the trace and builds the [`SharingProfile`].
///
/// Only statically-allocated kernel variables are profiled — the paper's
/// analysis likewise excludes dynamically-allocated structures so results
/// are repeatable across reboots (§6).
///
/// One pass pulling events through each stream's chunk iterator, so
/// memory stays at one decode window per stream. The rmw peephole
/// (adjacent read+write of one word counts as a single update) needs only
/// a one-event lookahead, which the peekable iterator supplies across
/// chunk boundaries.
///
/// # Panics
///
/// Panics if the trace has more than [`MAX_CPUS`] streams, a bound
/// `read_trace` and the workload builders already enforce.
pub fn profile_sharing(trace: &ChunkedTrace) -> SharingProfile {
    assert!(trace.n_cpus() <= MAX_CPUS, "more than {MAX_CPUS} cpus");
    let meta = &trace.meta;
    // Static-variable ranges, sorted for binary search behind a check
    // against their overall span `[lo, hi)`.
    let mut ranges: Vec<(u32, u32)> = meta.vars.iter().map(|v| (v.addr.0, v.size)).collect();
    ranges.sort_unstable();
    let lo = ranges.first().map_or(0, |&(s, _)| s);
    let hi = ranges
        .iter()
        .map(|&(s, len)| u64::from(s) + u64::from(len))
        .max()
        .unwrap_or(0);
    let in_static = |a: u32| -> bool {
        if a < lo || u64::from(a) >= hi {
            return false;
        }
        match ranges.binary_search_by(|&(s, _)| s.cmp(&a)) {
            Ok(_) => true,
            Err(0) => false,
            Err(i) => {
                let (s, len) = ranges[i - 1];
                a < s + len
            }
        }
    };
    let word = |a: u32| a & !(WORD_SIZE - 1);

    let mut p = SharingProfile::default();
    for (cpu, stream) in trace.streams.iter().enumerate() {
        let mut lock_depth = 0u32;
        let mut it = stream.iter().peekable();
        while let Some(ev) = it.next() {
            match ev {
                Event::LockAcquire { lock, addr } => {
                    let e = p.locks.entry(lock.0).or_insert((0, addr));
                    e.0 += 1;
                    lock_depth += 1;
                }
                Event::LockRelease { .. } => {
                    lock_depth = lock_depth.saturating_sub(1);
                }
                Event::Barrier { addr, .. } => {
                    p.barriers.insert(word(addr.0));
                }
                Event::Read { addr, .. } if in_static(addr.0) => {
                    let w = word(addr.0);
                    let st = p.words.entry(w).or_default();
                    st.total += 1;
                    if lock_depth > 0 {
                        st.locked += 1;
                    }
                    // Adjacent read+write of the same word = one update.
                    if let Some(Event::Write { addr: wa, .. }) = it.peek() {
                        if word(wa.0) == w {
                            st.rmw[cpu] += 1;
                            st.total += 1;
                            if lock_depth > 0 {
                                st.locked += 1;
                            }
                            it.next();
                            continue;
                        }
                    }
                    st.reads[cpu] += 1;
                }
                Event::Write { addr, .. } if in_static(addr.0) => {
                    let st = p.words.entry(word(addr.0)).or_default();
                    st.total += 1;
                    st.writes[cpu] += 1;
                    if lock_depth > 0 {
                        st.locked += 1;
                    }
                }
                _ => {}
            }
        }
    }
    p
}

/// Finds privatizable counter words (§5.1): multi-writer, read-modify-write
/// dominated, rarely read individually, and not lock-protected.
pub fn find_privatizable(profile: &SharingProfile) -> Vec<Addr> {
    let mut out: Vec<Addr> = profile
        .words
        .iter()
        .filter(|(_, st)| {
            st.writer_cpus() >= 3
                && st.rmw_total() >= 8
                && st.rmw_total() >= 4 * st.reads_total().max(1)
                && st.writes_total() * 4 <= st.rmw_total()
                && st.locked_fraction() < 0.3
        })
        .map(|(&a, _)| Addr(a))
        .collect();
    out.sort_unstable();
    out
}

/// The §5.2 selective-update variable set.
#[derive(Clone, Debug, Default)]
pub struct UpdateSet {
    /// Barrier words.
    pub barriers: Vec<Addr>,
    /// The most active lock words (≤ 10).
    pub locks: Vec<Addr>,
    /// Frequently-shared variable words (≤ `VAR_BUDGET` bytes).
    pub vars: Vec<Addr>,
}

/// Byte budget for the frequently-shared members (the paper uses 176 B).
pub const VAR_BUDGET: u32 = 176;

impl UpdateSet {
    /// All member words.
    pub fn all_words(&self) -> impl Iterator<Item = Addr> + '_ {
        self.barriers
            .iter()
            .chain(self.locks.iter())
            .chain(self.vars.iter())
            .copied()
    }

    /// Total bytes covered (words × word size).
    pub fn bytes(&self) -> u32 {
        (self.barriers.len() + self.locks.len() + self.vars.len()) as u32 * WORD_SIZE
    }
}

/// Selects the update set: all barriers, the 10 hottest locks, and the
/// highest-traffic multi-CPU shared words within the byte budget,
/// excluding anything privatized.
pub fn find_update_set(profile: &SharingProfile, privatized: &[Addr]) -> UpdateSet {
    let priv_set: HashSet<u32> = privatized.iter().map(|a| a.0).collect();
    let mut barriers: Vec<Addr> = profile.barriers.iter().map(|&a| Addr(a)).collect();
    barriers.sort_unstable();

    let mut locks: Vec<(u64, Addr)> = profile.locks.values().copied().collect();
    locks.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    locks.truncate(10);
    let lock_words: HashSet<u32> = locks.iter().map(|&(_, a)| a.0 & !3).collect();

    let mut vars: Vec<(u32, u32)> = profile
        .words
        .iter()
        .filter(|(&a, st)| {
            !priv_set.contains(&a)
                && !lock_words.contains(&a)
                && !profile.barriers.contains(&a)
                && st.writer_cpus() >= 1
                && st.writer_cpus() + st.reader_cpus() >= 3
                && st.total >= 16
        })
        .map(|(&a, st)| (st.total, a))
        .collect();
    vars.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    let keep = (VAR_BUDGET / WORD_SIZE) as usize;
    vars.truncate(keep);
    let mut var_addrs: Vec<Addr> = vars.into_iter().map(|(_, a)| Addr(a)).collect();
    var_addrs.sort_unstable();

    UpdateSet {
        barriers,
        locks: locks.into_iter().map(|(_, a)| a).collect(),
        vars: var_addrs,
    }
}

/// Number of hot spots the paper selects (§6: 5 loops + 7 sequences).
pub const N_HOT_SPOTS: usize = 12;

/// Fraction of remaining OS misses the selected hot spots may cover.
///
/// In the paper, the 12 most active hot spots account for 29%, 44%, 22%,
/// and 51% of the remaining OS data misses — a real kernel has thousands
/// of basic blocks, so the head of the distribution is that thin. The
/// synthetic kernel has a few dozen sites, so an uncapped top-12 would
/// cover nearly everything; the cap keeps the selected set's coverage at
/// the paper's level (see DESIGN.md §2).
pub const HOT_SPOT_COVERAGE: f64 = 0.45;

/// Ranks code sites by OS data misses (from a profiling run's aggregated
/// [`CpuStats`]) and returns up to [`N_HOT_SPOTS`] site ids whose combined
/// misses stay within [`HOT_SPOT_COVERAGE`] of all OS misses.
///
/// Block-copy/zero loop sites are excluded: their misses belong to §4's
/// block-operation schemes, not §6's scalar prefetching.
pub fn find_hot_spots(total: &CpuStats, code: &CodeLayout) -> Vec<u16> {
    let mut ranked: Vec<(u64, u16)> = total
        .os_miss_by_site
        .iter()
        .enumerate()
        .filter(|&(site, &n)| {
            if n == 0 {
                return false;
            }
            let name = code.site(oscache_trace::SiteId(site as u16)).name;
            // Block-op loops belong to §4's schemes; the generic
            // data-work sequence is pointer-intensive, which the paper
            // says is hard to prefetch usefully (§7).
            name != "bcopy_loop" && name != "bzero_loop" && name != "kwork_seq"
        })
        .map(|(site, &n)| (n, site as u16))
        .collect();
    ranked.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    let budget = (total.os_read_misses() as f64 * HOT_SPOT_COVERAGE) as u64;
    let mut covered = 0u64;
    let mut out = Vec::new();
    for (n, site) in ranked {
        if n == 0 || out.len() >= N_HOT_SPOTS {
            break;
        }
        if covered + n > budget && !out.is_empty() {
            continue; // too big to fit the coverage budget; try smaller sites
        }
        covered += n;
        out.push(site);
    }
    out
}

/// Per-data-structure reference counts (the §3 classification view: where
/// the OS's reads actually go).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ClassProfile {
    /// Scalar reads of this class.
    pub reads: u64,
    /// Scalar writes of this class.
    pub writes: u64,
}

/// Counts reads/writes per [`DataClass`] across the whole trace
/// (block-operation payload references included).
pub fn class_profile(trace: &ChunkedTrace) -> HashMap<DataClass, ClassProfile> {
    let mut map: HashMap<DataClass, ClassProfile> = HashMap::new();
    for stream in &trace.streams {
        for e in stream.iter() {
            match e {
                Event::Read { class, .. } => map.entry(class).or_default().reads += 1,
                Event::Write { class, .. } => map.entry(class).or_default().writes += 1,
                Event::LockAcquire { .. } => {
                    let p = map.entry(DataClass::LockVar).or_default();
                    p.reads += 1;
                    p.writes += 1;
                }
                Event::LockRelease { .. } => map.entry(DataClass::LockVar).or_default().writes += 1,
                Event::Barrier { .. } => {
                    let p = map.entry(DataClass::BarrierVar).or_default();
                    p.reads += 1;
                    p.writes += 1;
                }
                _ => {}
            }
        }
    }
    map
}

/// One entry of the §6 conflict-pair analysis.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ConflictPair {
    /// The structure that was displaced.
    pub victim: DataClass,
    /// The structure whose fill displaced it.
    pub evictor: DataClass,
    /// Number of such evictions.
    pub count: u64,
}

/// Ranks kernel-structure conflict pairs by eviction count (§6's
/// "expensive simulation" that determines "the pair of data structures
/// involved in each conflict miss").
pub fn conflict_matrix(total: &CpuStats) -> Vec<ConflictPair> {
    let mut v: Vec<ConflictPair> = total
        .conflict_pairs
        .entries()
        .iter()
        .map(|&((victim, evictor), count)| ConflictPair {
            victim,
            evictor,
            count,
        })
        .collect();
    // Ties rank by the pair's names.
    v.sort_by(|a, b| {
        let names = |p: &ConflictPair| (p.victim.name(), p.evictor.name());
        b.count.cmp(&a.count).then_with(|| names(a).cmp(&names(b)))
    });
    v
}

/// The paper's §6 finding: "no two data structures suffer obvious
/// conflicts with each other. Instead, a given data structure suffers
/// conflicts with several data structures. These conflicts we call
/// *random conflicts*. Therefore, no relocation is performed."
///
/// Returns true when no single pair dominates (top pair below
/// `threshold` of all pair evictions).
pub fn conflicts_are_diffuse(matrix: &[ConflictPair], threshold: f64) -> bool {
    let total: u64 = matrix.iter().map(|p| p.count).sum();
    match matrix.first() {
        Some(top) if total > 0 => (top.count as f64) < threshold * total as f64,
        _ => true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oscache_workloads::{build_chunked, BuildOptions, Workload};

    fn profile_of(w: Workload) -> (SharingProfile, ChunkedTrace) {
        let t = build_chunked(
            w,
            BuildOptions {
                scale: 0.1,
                seed: 3,
                ..Default::default()
            },
        );
        (profile_sharing(&t), t)
    }

    #[test]
    fn privatization_finds_the_counters_and_only_counters() {
        let (p, t) = profile_of(Workload::Trfd4);
        let found = find_privatizable(&p);
        assert!(!found.is_empty(), "no privatizable words found");
        for a in &found {
            let v = t.meta.var_at(*a).expect("target not a known variable");
            assert_eq!(
                v.role,
                oscache_trace::VarRole::Counter,
                "non-counter {} privatized",
                v.name
            );
        }
        // The busiest counters must be found.
        for name in ["vmmeter.v_swtch", "vmmeter.v_pgfault"] {
            let addr = t.meta.var_named(name).unwrap().addr;
            assert!(found.contains(&addr), "{name} not found");
        }
    }

    #[test]
    fn update_set_has_barriers_locks_and_shared_vars() {
        let (p, t) = profile_of(Workload::Trfd4);
        let privatized = find_privatizable(&p);
        let set = find_update_set(&p, &privatized);
        assert!(!set.barriers.is_empty(), "no barriers in update set");
        assert!(!set.locks.is_empty(), "no locks in update set");
        assert!(set.locks.len() <= 10);
        assert!(!set.vars.is_empty(), "no shared vars in update set");
        // The paper's examples must make the cut.
        let freelist = t.meta.var_named("freelist.size").unwrap().addr;
        assert!(
            set.vars.contains(&freelist),
            "freelist.size missing from {:?}",
            set.vars
        );
        // Budget respected: vars ≤ 176 bytes worth of words.
        assert!(set.vars.len() <= (VAR_BUDGET / WORD_SIZE) as usize);
        // Nothing privatized sneaks in.
        for v in &set.vars {
            assert!(!privatized.contains(v));
        }
    }

    #[test]
    fn update_set_excludes_plain_kernel_data() {
        let (p, t) = profile_of(Workload::Shell);
        let set = find_update_set(&p, &find_privatizable(&p));
        for a in &set.vars {
            let v = t.meta.var_at(*a).expect("var");
            // FreqShared and Plain variables qualify; lock-protected
            // counters (not privatizable) may also land here.
            assert!(
                matches!(
                    v.role,
                    oscache_trace::VarRole::FreqShared { .. }
                        | oscache_trace::VarRole::Plain
                        | oscache_trace::VarRole::Counter
                ),
                "unexpected role {:?} for {}",
                v.role,
                v.name
            );
        }
    }

    #[test]
    fn profile_is_deterministic() {
        let (a, _) = profile_of(Workload::TrfdMake);
        let (b, _) = profile_of(Workload::TrfdMake);
        assert_eq!(a.words.len(), b.words.len());
        assert_eq!(a.locks.len(), b.locks.len());
    }

    #[test]
    fn class_profile_counts_references() {
        let t = build_chunked(
            Workload::Shell,
            BuildOptions {
                scale: 0.05,
                seed: 5,
                ..Default::default()
            },
        );
        let p = class_profile(&t);
        // Every structure the paper names appears.
        for c in [
            DataClass::InfreqCounter,
            DataClass::LockVar,
            DataClass::PageTable,
            DataClass::ProcTable,
            DataClass::BufferCache,
            DataClass::UserData,
            DataClass::KernelStack,
        ] {
            let e = p.get(&c).copied().unwrap_or_default();
            assert!(e.reads + e.writes > 0, "{c:?} never referenced");
        }
        // Totals reconcile with the trace's own counters (locks/barriers
        // add their synthetic accesses on top of scalar reads/writes).
        let reads: u64 = p.values().map(|e| e.reads).sum();
        let scalar_reads = t
            .streams
            .iter()
            .flat_map(|s| s.iter())
            .filter(Event::is_read);
        assert!(reads >= scalar_reads.count() as u64);
    }

    #[test]
    fn conflict_matrix_reports_diffuse_conflicts() {
        // The paper's §6 result on the real kernel: conflicts are random,
        // not concentrated between one structure pair.
        let t = build_chunked(
            Workload::TrfdMake,
            BuildOptions {
                scale: 0.1,
                seed: 3,
                ..Default::default()
            },
        );
        let r = crate::sim::run_system(&t, crate::config::System::Base);
        let m = conflict_matrix(&r.stats.total());
        assert!(!m.is_empty(), "no conflicts recorded");
        assert!(
            conflicts_are_diffuse(&m, 0.4),
            "top conflict pair dominates: {:?}",
            &m[..m.len().min(3)]
        );
        // Sorted descending.
        for w in m.windows(2) {
            assert!(w[0].count >= w[1].count);
        }
    }

    #[test]
    fn diffuseness_detects_a_dominant_pair() {
        let mk = |v, e, c| ConflictPair {
            victim: v,
            evictor: e,
            count: c,
        };
        let dominated = vec![
            mk(DataClass::PageTable, DataClass::ProcTable, 90),
            mk(DataClass::RunQueue, DataClass::PageTable, 10),
        ];
        assert!(!conflicts_are_diffuse(&dominated, 0.25));
        let diffuse = vec![
            mk(DataClass::PageTable, DataClass::ProcTable, 10),
            mk(DataClass::RunQueue, DataClass::PageTable, 9),
            mk(DataClass::BufferCache, DataClass::PageTable, 9),
            mk(DataClass::ProcTable, DataClass::KernelOther, 9),
            mk(DataClass::KernelOther, DataClass::UserData, 9),
        ];
        assert!(conflicts_are_diffuse(&diffuse, 0.25));
        assert!(conflicts_are_diffuse(&[], 0.25));
    }

    #[test]
    fn locked_fraction_flags_lock_protected_words() {
        let (p, t) = profile_of(Workload::Arc2dFsck);
        let freelist = t.meta.var_named("freelist.size").unwrap().addr;
        let st = p.words.get(&freelist.0).expect("freelist profiled");
        assert!(
            st.locked_fraction() > 0.9,
            "freelist.size accessed outside its lock: {}",
            st.locked_fraction()
        );
    }
}
