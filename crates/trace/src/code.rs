//! Basic-block code layout.
//!
//! The paper reconstructs the full instruction stream from escape references
//! inserted at every basic block (§2.2), which lets its simulator model the
//! instruction cache and lets the authors attribute data misses to the source
//! statements that cause them (the *miss hot spots* of §6). We model code as
//! a set of basic blocks, each with an instruction-address range and a parent
//! *site* (an OS routine or loop/sequence within one), so the simulator can
//! replay instruction fetches and the analysis pass can rank sites by misses.

use crate::Addr;
use std::fmt;

/// Identifier of a basic block in a [`CodeLayout`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct BlockId(pub u32);

impl BlockId {
    /// The block index as a `usize`.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Identifier of a *site*: a named routine, loop, or basic-block sequence.
///
/// Sites are the granularity of the paper's hot-spot analysis: "5 loops and
/// 7 sequences" account for 22–51% of the remaining OS data misses (§6).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct SiteId(pub u16);

impl SiteId {
    /// The site index as a `usize`.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A straight-line run of instructions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BasicBlock {
    /// Address of the first instruction.
    pub start: Addr,
    /// Number of instructions in the block.
    pub instrs: u32,
    /// Bytes per instruction (4 on the modelled machine).
    pub instr_size: u32,
    /// The site this block belongs to.
    pub site: SiteId,
}

impl BasicBlock {
    /// Total size of the block in bytes.
    #[inline]
    pub fn len_bytes(&self) -> u32 {
        self.instrs * self.instr_size
    }

    /// Address one past the last instruction byte.
    #[inline]
    pub fn end(&self) -> Addr {
        self.start.offset(self.len_bytes())
    }
}

/// Descriptive information about a site.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SiteInfo {
    /// Human-readable name, e.g. `"pte_init_loop"`.
    pub name: &'static str,
    /// Whether the site is a loop (§6 distinguishes loops, which get
    /// unrolled+pipelined prefetching, from sequences, which get hoisted
    /// prefetches).
    pub is_loop: bool,
}

/// The code map: every basic block of kernel and user code.
///
/// `CodeLayout` is append-only; generators allocate blocks while building a
/// trace and the resulting layout travels with the [`crate::ChunkedTrace`].
#[derive(Clone, Debug, Default)]
pub struct CodeLayout {
    blocks: Vec<BasicBlock>,
    sites: Vec<SiteInfo>,
}

impl CodeLayout {
    /// Creates an empty layout.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a site and returns its id.
    pub fn add_site(&mut self, name: &'static str, is_loop: bool) -> SiteId {
        let id = SiteId(u16::try_from(self.sites.len()).expect("too many sites"));
        self.sites.push(SiteInfo { name, is_loop });
        id
    }

    /// Registers a basic block and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if `site` was not created by [`CodeLayout::add_site`] on this
    /// layout, or if `instrs` is zero.
    pub fn add_block(&mut self, start: Addr, instrs: u32, site: SiteId) -> BlockId {
        assert!(instrs > 0, "basic block must contain instructions");
        assert!(site.index() < self.sites.len(), "unknown site {site:?}");
        let id = BlockId(u32::try_from(self.blocks.len()).expect("too many blocks"));
        self.blocks.push(BasicBlock {
            start,
            instrs,
            instr_size: 4,
            site,
        });
        id
    }

    /// Looks up a block.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a block of this layout.
    #[inline]
    pub fn block(&self, id: BlockId) -> &BasicBlock {
        &self.blocks[id.index()]
    }

    /// Looks up a block, returning `None` when `id` is not a block of this
    /// layout (the non-panicking lookup replay paths use on trace-derived
    /// ids).
    #[inline]
    pub fn try_block(&self, id: BlockId) -> Option<&BasicBlock> {
        self.blocks.get(id.index())
    }

    /// Looks up a site's description.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a site of this layout.
    #[inline]
    pub fn site(&self, id: SiteId) -> &SiteInfo {
        &self.sites[id.index()]
    }

    /// Number of registered basic blocks.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// Number of registered sites.
    pub fn site_count(&self) -> usize {
        self.sites.len()
    }

    /// Iterates over `(BlockId, &BasicBlock)` pairs.
    pub fn blocks(&self) -> impl Iterator<Item = (BlockId, &BasicBlock)> {
        self.blocks
            .iter()
            .enumerate()
            .map(|(i, b)| (BlockId(i as u32), b))
    }

    /// Iterates over `(SiteId, &SiteInfo)` pairs.
    pub fn sites(&self) -> impl Iterator<Item = (SiteId, &SiteInfo)> {
        self.sites
            .iter()
            .enumerate()
            .map(|(i, s)| (SiteId(i as u16), s))
    }
}

impl fmt::Display for CodeLayout {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "CodeLayout({} blocks, {} sites)",
            self.blocks.len(),
            self.sites.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_lookup() {
        let mut c = CodeLayout::new();
        let s = c.add_site("sched", false);
        let b = c.add_block(Addr(0x1000), 8, s);
        assert_eq!(c.block(b).start, Addr(0x1000));
        assert_eq!(c.block(b).len_bytes(), 32);
        assert_eq!(c.block(b).end(), Addr(0x1020));
        assert_eq!(c.site(s).name, "sched");
        assert_eq!(c.block_count(), 1);
        assert_eq!(c.site_count(), 1);
    }

    #[test]
    #[should_panic(expected = "unknown site")]
    fn block_with_foreign_site_panics() {
        let mut c = CodeLayout::new();
        c.add_block(Addr(0), 1, SiteId(3));
    }

    #[test]
    #[should_panic(expected = "must contain instructions")]
    fn empty_block_panics() {
        let mut c = CodeLayout::new();
        let s = c.add_site("x", false);
        c.add_block(Addr(0), 0, s);
    }

    #[test]
    fn iteration_yields_ids_in_order() {
        let mut c = CodeLayout::new();
        let s = c.add_site("a", true);
        for i in 0..5 {
            c.add_block(Addr(i * 64), 4, s);
        }
        let ids: Vec<u32> = c.blocks().map(|(id, _)| id.0).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
        assert!(c.sites().all(|(_, info)| info.is_loop));
    }
}
