//! Per-(CPU, line) departure history, the basis of miss classification.
//!
//! To label a miss *coherence* (the line was invalidated by a remote write,
//! §5), *block displacement* (the line was evicted by a block-operation
//! fill, §4.1.3), or *other*, the simulator remembers why each line last
//! left each CPU's L1D and L2. A bypass mark per line records block-
//! operation accesses that skipped the caches, so that later misses on
//! them can be counted as *reuses* (§4.1.3).
//!
//! All three live in one [`DepartureTable`]: one byte per (CPU, L1D-line
//! slot), reached through a two-level page directory rather than a hash,
//! so a probe is three dependent loads and memory follows the pages the
//! replay touches.

use oscache_trace::{LineAddr, PAGE_SIZE};

/// Why a line last left a cache.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Departure {
    /// Displaced by an ordinary fill (conflict/capacity).
    Evicted,
    /// Displaced by a fill belonging to a block operation.
    EvictedByBlockOp,
    /// Invalidated by a remote processor's write.
    InvalidatedRemote,
}

impl Departure {
    /// The two-bit code of this reason (0 means "no history").
    fn code(self) -> u8 {
        match self {
            Departure::Evicted => 1,
            Departure::EvictedByBlockOp => 2,
            Departure::InvalidatedRemote => 3,
        }
    }

    fn from_code(code: u8) -> Option<Self> {
        match code & 3 {
            0 => None,
            1 => Some(Departure::Evicted),
            2 => Some(Departure::EvictedByBlockOp),
            _ => Some(Departure::InvalidatedRemote),
        }
    }
}

/// The cache whose departures a history entry describes.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum CacheLevel {
    /// The primary data cache: keyed by L1D line.
    L1d,
    /// The secondary cache: keyed by L2 line, stored at the slot of the
    /// line's first byte.
    L2,
}

impl CacheLevel {
    /// Bit offset of this level's two-bit departure code in a slot.
    fn shift(self) -> u32 {
        match self {
            CacheLevel::L1d => 0,
            CacheLevel::L2 => 2,
        }
    }
}

/// Slot bit of the bypass mark.
const BYPASS: u8 = 1 << 4;

const PAGE_SHIFT: u32 = PAGE_SIZE.trailing_zeros();
/// One directory entry covers 4 MB of address space.
const REGION_SHIFT: u32 = 22;
const PAGES_PER_REGION: usize = 1 << (REGION_SHIFT - PAGE_SHIFT);
const REGIONS: usize = 1 << (32 - REGION_SHIFT);

/// Every CPU's slots for one page, CPU-major.
type Leaf = Box<[u8]>;
/// The leaves of one 4 MB region, allocated on first touch.
type Region = Box<[Option<Leaf>; PAGES_PER_REGION]>;

/// Departure history and bypass marks for every (CPU, L1D line).
///
/// Each slot is one byte: bits 0–1 hold the L1D departure, bits 2–3 the
/// L2 departure of the L2 line starting at this slot's address, bit 4 the
/// bypass mark. Slots are reached by `addr >> 22` into a directory of
/// 4 MB regions, then the page within the region; the directory, each
/// region's page array and each page's leaf (`n_cpus × PAGE_SIZE /
/// l1d_line` bytes) are allocated when a record or mark first reaches
/// them, and never copied or resized after. Reads and clears of an
/// untouched page allocate nothing, so a replay that never records (the
/// profiling replay) never allocates.
pub struct DepartureTable {
    n_cpus: usize,
    /// `log2(l1d_line)`.
    line_shift: u32,
    /// Slots per CPU per page: `PAGE_SIZE / l1d_line`.
    slots_per_page: usize,
    /// `l2_line - 1`, for the alignment check of L2 keys.
    l2_mask: u32,
    /// Empty until the first record or mark, then `REGIONS` entries.
    dir: Vec<Option<Region>>,
}

impl DepartureTable {
    /// An empty table for `n_cpus` CPUs with the given L1D and L2 line
    /// sizes (powers of two, `l1d_line ≤ l2_line ≤ PAGE_SIZE`).
    ///
    /// # Panics
    ///
    /// Panics if the line sizes break those bounds.
    pub fn new(n_cpus: usize, l1d_line: u32, l2_line: u32) -> Self {
        assert!(
            l1d_line.is_power_of_two() && l2_line.is_power_of_two(),
            "line sizes must be powers of two"
        );
        assert!(l1d_line <= l2_line, "L2 line must cover the L1D line");
        assert!(l2_line <= PAGE_SIZE, "L2 line must fit in a page");
        DepartureTable {
            n_cpus,
            line_shift: l1d_line.trailing_zeros(),
            slots_per_page: (PAGE_SIZE / l1d_line) as usize,
            l2_mask: l2_line - 1,
            dir: Vec::new(),
        }
    }

    /// Slot index of `(cpu, line)` within its page's leaf.
    #[inline]
    fn index(&self, cpu: usize, line: LineAddr) -> usize {
        debug_assert!(cpu < self.n_cpus, "cpu {cpu} out of range");
        debug_assert_eq!(
            line.0 & ((1 << self.line_shift) - 1),
            0,
            "unaligned line {:#x}",
            line.0
        );
        cpu * self.slots_per_page + ((line.0 & (PAGE_SIZE - 1)) >> self.line_shift) as usize
    }

    #[inline]
    fn leaf(&self, line: LineAddr) -> Option<&Leaf> {
        let region = self.dir.get((line.0 >> REGION_SHIFT) as usize)?.as_ref()?;
        region[(line.0 >> PAGE_SHIFT) as usize % PAGES_PER_REGION].as_ref()
    }

    #[inline]
    fn leaf_mut(&mut self, line: LineAddr) -> Option<&mut Leaf> {
        let region = self
            .dir
            .get_mut((line.0 >> REGION_SHIFT) as usize)?
            .as_mut()?;
        region[(line.0 >> PAGE_SHIFT) as usize % PAGES_PER_REGION].as_mut()
    }

    /// The slot of `(cpu, line)`, if its page has been touched.
    #[inline]
    fn slot(&self, cpu: usize, line: LineAddr) -> u8 {
        let i = self.index(cpu, line);
        self.leaf(line).map_or(0, |leaf| leaf[i])
    }

    /// The slot of `(cpu, line)`, if its page has been touched; never
    /// allocates.
    #[inline]
    fn slot_mut(&mut self, cpu: usize, line: LineAddr) -> Option<&mut u8> {
        let i = self.index(cpu, line);
        self.leaf_mut(line).map(|leaf| &mut leaf[i])
    }

    /// The slot of `(cpu, line)`, allocating its page's leaf (and the
    /// directory and region above it) on first touch.
    fn slot_alloc(&mut self, cpu: usize, line: LineAddr) -> &mut u8 {
        let i = self.index(cpu, line);
        let leaf_len = self.n_cpus * self.slots_per_page;
        if self.dir.is_empty() {
            self.dir.resize_with(REGIONS, || None);
        }
        let region = self.dir[(line.0 >> REGION_SHIFT) as usize]
            .get_or_insert_with(|| Box::new(std::array::from_fn(|_| None)));
        let leaf = region[(line.0 >> PAGE_SHIFT) as usize % PAGES_PER_REGION]
            .get_or_insert_with(|| vec![0; leaf_len].into_boxed_slice());
        &mut leaf[i]
    }

    #[inline]
    fn debug_check_level(&self, level: CacheLevel, line: LineAddr) {
        debug_assert!(
            level == CacheLevel::L1d || line.0 & self.l2_mask == 0,
            "unaligned L2 line {:#x}",
            line.0
        );
    }

    /// Records why `line` left `cpu`'s `level` cache (overwrites prior
    /// history).
    pub fn record(&mut self, level: CacheLevel, cpu: usize, line: LineAddr, why: Departure) {
        self.debug_check_level(level, line);
        let shift = level.shift();
        let slot = self.slot_alloc(cpu, line);
        *slot = (*slot & !(3 << shift)) | (why.code() << shift);
    }

    /// The recorded departure reason, if any.
    #[inline]
    pub fn get(&self, level: CacheLevel, cpu: usize, line: LineAddr) -> Option<Departure> {
        self.debug_check_level(level, line);
        Departure::from_code(self.slot(cpu, line) >> level.shift())
    }

    /// Clears the history of a line re-entering `cpu`'s `level` cache.
    #[inline]
    pub fn forget(&mut self, level: CacheLevel, cpu: usize, line: LineAddr) {
        self.debug_check_level(level, line);
        if let Some(slot) = self.slot_mut(cpu, line) {
            *slot &= !(3 << level.shift());
        }
    }

    /// Marks an L1D line as bypassed for `cpu`.
    pub fn mark(&mut self, cpu: usize, line: LineAddr) {
        *self.slot_alloc(cpu, line) |= BYPASS;
    }

    /// Removes the bypass mark, returning whether it was present.
    #[inline]
    pub fn take(&mut self, cpu: usize, line: LineAddr) -> bool {
        self.slot_mut(cpu, line).is_some_and(|slot| {
            let was = *slot & BYPASS != 0;
            *slot &= !BYPASS;
            was
        })
    }

    /// True if `line` is marked bypassed for `cpu` — at miss time, a
    /// *reuse* miss.
    #[inline]
    pub fn contains(&self, cpu: usize, line: LineAddr) -> bool {
        self.slot(cpu, line) & BYPASS != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oscache_trace::rng::{Rng, SmallRng};
    use std::collections::{HashMap, HashSet};

    fn la(a: u32) -> LineAddr {
        LineAddr(a)
    }

    /// A table with the default geometry's 16-byte L1D and 32-byte L2
    /// lines.
    fn table(n_cpus: usize) -> DepartureTable {
        DepartureTable::new(n_cpus, 16, 32)
    }

    /// Slots of `t` for which `pred` holds, over every allocated leaf.
    fn count(t: &DepartureTable, pred: impl Fn(u8) -> bool) -> usize {
        t.dir
            .iter()
            .flatten()
            .flat_map(|region| region.iter().flatten())
            .map(|leaf| leaf.iter().filter(|&&s| pred(s)).count())
            .sum()
    }

    fn departures(t: &DepartureTable, level: CacheLevel) -> usize {
        count(t, |s| (s >> level.shift()) & 3 != 0)
    }

    fn marks(t: &DepartureTable) -> usize {
        count(t, |s| s & BYPASS != 0)
    }

    #[test]
    fn record_and_get_are_per_cpu() {
        let mut h = table(3);
        h.record(CacheLevel::L1d, 0, la(0x100), Departure::InvalidatedRemote);
        h.record(CacheLevel::L1d, 1, la(0x100), Departure::Evicted);
        assert_eq!(
            h.get(CacheLevel::L1d, 0, la(0x100)),
            Some(Departure::InvalidatedRemote)
        );
        assert_eq!(
            h.get(CacheLevel::L1d, 1, la(0x100)),
            Some(Departure::Evicted)
        );
        assert_eq!(h.get(CacheLevel::L1d, 2, la(0x100)), None);
        assert_eq!(departures(&h, CacheLevel::L1d), 2);
    }

    #[test]
    fn record_overwrites_and_forget_clears() {
        let mut h = table(1);
        h.record(CacheLevel::L1d, 0, la(0x40), Departure::Evicted);
        h.record(CacheLevel::L1d, 0, la(0x40), Departure::EvictedByBlockOp);
        assert_eq!(
            h.get(CacheLevel::L1d, 0, la(0x40)),
            Some(Departure::EvictedByBlockOp)
        );
        h.forget(CacheLevel::L1d, 0, la(0x40));
        assert!(h.get(CacheLevel::L1d, 0, la(0x40)).is_none());
        assert_eq!(departures(&h, CacheLevel::L1d), 0);
    }

    #[test]
    fn bypass_take_is_single_shot() {
        let mut b = table(3);
        b.mark(2, la(0x80));
        assert!(b.contains(2, la(0x80)));
        assert!(!b.contains(1, la(0x80)));
        assert!(b.take(2, la(0x80)));
        assert!(!b.take(2, la(0x80)));
        assert_eq!(marks(&b), 0);
    }

    #[test]
    fn keys_do_not_collide_across_cpus() {
        let mut b = table(2);
        b.mark(0, la(0x1 << 4));
        b.mark(1, la(0x1 << 4));
        assert_eq!(marks(&b), 2);
        assert!(b.take(0, la(0x1 << 4)));
        assert!(b.contains(1, la(0x1 << 4)));
    }

    #[test]
    fn levels_and_marks_share_a_slot_independently() {
        let mut t = table(1);
        t.record(CacheLevel::L2, 0, la(0x40), Departure::InvalidatedRemote);
        t.record(CacheLevel::L1d, 0, la(0x40), Departure::Evicted);
        t.mark(0, la(0x40));
        t.forget(CacheLevel::L1d, 0, la(0x40));
        assert_eq!(
            t.get(CacheLevel::L2, 0, la(0x40)),
            Some(Departure::InvalidatedRemote)
        );
        assert!(t.contains(0, la(0x40)));
        assert!(t.take(0, la(0x40)));
        t.forget(CacheLevel::L2, 0, la(0x40));
        assert_eq!(count(&t, |s| s != 0), 0);
    }

    #[test]
    fn reads_and_clears_never_allocate() {
        let mut t = table(4);
        assert_eq!(t.get(CacheLevel::L1d, 3, la(0x1234_5670)), None);
        assert!(!t.contains(0, la(0xFFFF_FFF0)));
        assert!(!t.take(1, la(0x40)));
        t.forget(CacheLevel::L2, 2, la(0x8000_0000));
        assert!(t.dir.is_empty());
    }

    #[test]
    #[should_panic(expected = "fit in a page")]
    fn l2_lines_larger_than_a_page_are_rejected() {
        DepartureTable::new(1, 16, 2 * PAGE_SIZE);
    }

    /// Line-aligned addresses across page and 4 MB region boundaries: 0,
    /// both sides of the first region boundary, the colored region
    /// (`COLOR_BASE_PAGE` in oscache-core maps pages from 0x8000_0000),
    /// the last page below `u32::MAX`, and a few random pages.
    fn address_pool(rng: &mut SmallRng, l2_line: u32) -> Vec<u32> {
        let mut pages = vec![
            0,
            PAGE_SIZE,
            (1 << REGION_SHIFT) - PAGE_SIZE,
            1 << REGION_SHIFT,
            0x8000_0000,
            0x8000_0000 + PAGE_SIZE,
            u32::MAX - (PAGE_SIZE - 1),
        ];
        for _ in 0..4 {
            pages.push(rng.gen_range(0..=u32::MAX) & !(PAGE_SIZE - 1));
        }
        let mut pool = Vec::new();
        for page in pages {
            pool.extend([0, l2_line, PAGE_SIZE - l2_line].map(|off| page + off));
            pool.push(page + (rng.gen_range(0..PAGE_SIZE) & !(l2_line - 1)));
        }
        pool
    }

    /// Seeded random operation sequences against a `HashMap`/`HashSet`
    /// reference of the same semantics, over 1–8 CPUs, 16/32/64-byte L1D
    /// lines and L2 lines of one to four L1D lines.
    #[test]
    fn table_matches_a_hash_map_reference() {
        let mut rng = SmallRng::seed_from_u64(0x4d65_7061);
        let whys = [
            Departure::Evicted,
            Departure::EvictedByBlockOp,
            Departure::InvalidatedRemote,
        ];
        for n_cpus in 1..=8usize {
            for l1d_line in [16u32, 32, 64] {
                let l2_line = l1d_line << rng.gen_range(0..3u32);
                let mut t = DepartureTable::new(n_cpus, l1d_line, l2_line);
                let mut hist: HashMap<(CacheLevel, usize, u32), Departure> = HashMap::new();
                let mut bypass: HashSet<(usize, u32)> = HashSet::new();
                let l2_pool = address_pool(&mut rng, l2_line);
                for step in 0..4000 {
                    let cpu = rng.gen_range(0..n_cpus);
                    let base = l2_pool[rng.gen_range(0..l2_pool.len())];
                    let level = if rng.gen_bool(0.5) {
                        CacheLevel::L1d
                    } else {
                        CacheLevel::L2
                    };
                    // L1D keys: any L1D line of the chosen L2 line.
                    let line = match level {
                        CacheLevel::L1d => base + l1d_line * rng.gen_range(0..l2_line / l1d_line),
                        CacheLevel::L2 => base,
                    };
                    let what = format!("{n_cpus} cpus, lines {l1d_line}/{l2_line}, step {step}");
                    match rng.gen_range(0..6u32) {
                        0 => {
                            let why = whys[rng.gen_range(0..3usize)];
                            t.record(level, cpu, la(line), why);
                            hist.insert((level, cpu, line), why);
                        }
                        1 => {
                            t.forget(level, cpu, la(line));
                            hist.remove(&(level, cpu, line));
                        }
                        2 => assert_eq!(
                            t.get(level, cpu, la(line)),
                            hist.get(&(level, cpu, line)).copied(),
                            "{what}: get"
                        ),
                        3 => {
                            t.mark(cpu, la(line));
                            bypass.insert((cpu, line));
                        }
                        4 => assert_eq!(
                            t.take(cpu, la(line)),
                            bypass.remove(&(cpu, line)),
                            "{what}: take"
                        ),
                        _ => assert_eq!(
                            t.contains(cpu, la(line)),
                            bypass.contains(&(cpu, line)),
                            "{what}: contains"
                        ),
                    }
                }
                for (&(level, cpu, line), &why) in &hist {
                    assert_eq!(t.get(level, cpu, la(line)), Some(why));
                }
                for &(cpu, line) in &bypass {
                    assert!(t.contains(cpu, la(line)));
                }
                for level in [CacheLevel::L1d, CacheLevel::L2] {
                    let expected = hist.keys().filter(|k| k.0 == level).count();
                    assert_eq!(departures(&t, level), expected, "{level:?} count");
                }
                assert_eq!(marks(&t), bypass.len(), "mark count");
            }
        }
    }
}
