//! The paper's system ladder: `Base` → block-operation schemes (§4) →
//! coherence optimizations (§5) → hot-spot prefetching (§6).

use oscache_memsys::{BlockOpScheme, CacheGeom, MachineConfig};

/// How widely the update protocol is applied (§5.2).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum UpdatePolicy {
    /// Pure Illinois invalidation everywhere.
    #[default]
    None,
    /// Firefly updates on the selected ~384-byte core of shared variables,
    /// relocated to one update-mapped page (the paper's proposal).
    Selective,
    /// Firefly updates on every kernel static-data page (the ablation the
    /// paper compares against: a pure update protocol for OS variables).
    Full,
}

/// One of the systems evaluated in the paper's figures.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum System {
    /// §2.4 baseline.
    Base,
    /// `Blk_Pref`: software-prefetched block operations.
    BlkPref,
    /// `Blk_Bypass`: cache-bypassing block operations.
    BlkBypass,
    /// `Blk_ByPref`: bypass plus an 8-line prefetch buffer.
    BlkByPref,
    /// `Blk_Dma`: DMA-like block operations.
    BlkDma,
    /// `BCoh_Reloc`: `Blk_Dma` + data privatization and relocation (§5.1).
    BCohReloc,
    /// `BCoh_RelUp`: `BCoh_Reloc` + selective updates (§5.2).
    BCohRelUp,
    /// `BCPref`: `BCoh_RelUp` + hot-spot data prefetching (§6).
    BCPref,
}

impl System {
    /// The paper's label.
    pub fn label(self) -> &'static str {
        match self {
            System::Base => "Base",
            System::BlkPref => "Blk_Pref",
            System::BlkBypass => "Blk_Bypass",
            System::BlkByPref => "Blk_ByPref",
            System::BlkDma => "Blk_Dma",
            System::BCohReloc => "BCoh_Reloc",
            System::BCohRelUp => "BCoh_RelUp",
            System::BCPref => "BCPref",
        }
    }

    /// All systems in Figure 3's bar order.
    pub fn all() -> [System; 8] {
        [
            System::Base,
            System::BlkPref,
            System::BlkBypass,
            System::BlkByPref,
            System::BlkDma,
            System::BCohReloc,
            System::BCohRelUp,
            System::BCPref,
        ]
    }

    /// The fully-specified configuration this system denotes.
    pub fn spec(self) -> SystemSpec {
        let mut s = SystemSpec::default();
        match self {
            System::Base => {}
            System::BlkPref => s.block_scheme = BlockOpScheme::Pref,
            System::BlkBypass => s.block_scheme = BlockOpScheme::Bypass,
            System::BlkByPref => s.block_scheme = BlockOpScheme::ByPref,
            System::BlkDma => s.block_scheme = BlockOpScheme::Dma,
            System::BCohReloc => {
                s.block_scheme = BlockOpScheme::Dma;
                s.privatize = true;
                s.relocate = true;
            }
            System::BCohRelUp => {
                s.block_scheme = BlockOpScheme::Dma;
                s.privatize = true;
                s.relocate = true;
                s.update = UpdatePolicy::Selective;
            }
            System::BCPref => {
                s.block_scheme = BlockOpScheme::Dma;
                s.privatize = true;
                s.relocate = true;
                s.update = UpdatePolicy::Selective;
                s.hotspot_prefetch = true;
            }
        }
        s
    }
}

impl std::fmt::Display for System {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A fully-specified system: hardware scheme plus software optimizations.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub struct SystemSpec {
    /// Block-operation handling (§4).
    pub block_scheme: BlockOpScheme,
    /// Privatize infrequently-communicated counters (§5.1).
    pub privatize: bool,
    /// Relocate falsely-shared / co-accessed variables (§5.1).
    pub relocate: bool,
    /// Update-protocol policy (§5.2).
    pub update: UpdatePolicy,
    /// Insert prefetches at the hottest miss sites (§6).
    pub hotspot_prefetch: bool,
    /// Defer sub-page block copies (§4.2.1's deferred-copy study).
    pub deferred_copy: bool,
    /// Color dynamically-allocated pages across the L2 (§7's page-placement
    /// extension; not part of the paper's evaluated ladder).
    pub page_coloring: bool,
}

impl SystemSpec {
    /// The hot-spot spec's *twin*: the same spec without §6 prefetching.
    /// It shares the spec's analysis and machine configuration, so its
    /// full replay is the profiling run whose per-site OS misses rank the
    /// hot sites (`BCoh_RelUp` is `BCPref`'s twin).
    pub fn twin(self) -> SystemSpec {
        SystemSpec {
            hotspot_prefetch: false,
            ..self
        }
    }
}

/// Cache geometry of a run (Figures 6 and 7 sweep size and line; the
/// associativity fields support the ablation of the paper's §7 remark
/// that the remaining misses are mostly conflicts).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Geometry {
    /// L1D size in bytes.
    pub l1d_size: u32,
    /// L1 line size in bytes.
    pub l1_line: u32,
    /// L2 line size in bytes.
    pub l2_line: u32,
    /// L1 associativity (1 = the paper's direct-mapped caches).
    pub l1_ways: u32,
    /// L2 associativity.
    pub l2_ways: u32,
}

impl Default for Geometry {
    fn default() -> Self {
        Geometry {
            l1d_size: 32 * 1024,
            l1_line: 16,
            l2_line: 32,
            l1_ways: 1,
            l2_ways: 1,
        }
    }
}

impl Geometry {
    /// Builds the machine configuration for `spec` at this geometry.
    pub fn machine_config(&self, spec: &SystemSpec) -> MachineConfig {
        let mut cfg = MachineConfig::base();
        cfg.l1d = CacheGeom::new_assoc(self.l1d_size, self.l1_line, self.l1_ways);
        cfg.l1i = CacheGeom::new_assoc(cfg.l1i.size, self.l1_line, self.l1_ways);
        cfg.l2 = CacheGeom::new_assoc(cfg.l2.size, self.l2_line.max(self.l1_line), self.l2_ways);
        cfg.rescale_bus();
        cfg.block_scheme = spec.block_scheme;
        cfg.validate();
        cfg
    }

    /// Returns a copy with the given associativities.
    pub fn with_ways(mut self, l1_ways: u32, l2_ways: u32) -> Self {
        self.l1_ways = l1_ways;
        self.l2_ways = l2_ways;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_specs_are_cumulative() {
        assert_eq!(System::Base.spec(), SystemSpec::default());
        let dma = System::BlkDma.spec();
        assert_eq!(dma.block_scheme, BlockOpScheme::Dma);
        assert!(!dma.privatize);
        let reloc = System::BCohReloc.spec();
        assert!(reloc.privatize && reloc.relocate);
        assert_eq!(reloc.update, UpdatePolicy::None);
        let relup = System::BCohRelUp.spec();
        assert_eq!(relup.update, UpdatePolicy::Selective);
        assert!(!relup.hotspot_prefetch);
        let bcpref = System::BCPref.spec();
        assert!(bcpref.hotspot_prefetch);
        assert_eq!(bcpref.twin(), relup);
        assert_eq!(bcpref.block_scheme, BlockOpScheme::Dma);
    }

    #[test]
    fn labels_match_paper() {
        assert_eq!(System::BCohRelUp.label(), "BCoh_RelUp");
        assert_eq!(System::all().len(), 8);
        assert_eq!(System::all()[0], System::Base);
        assert_eq!(format!("{}", System::BlkDma), "Blk_Dma");
    }

    #[test]
    fn associative_geometry_propagates() {
        let g = Geometry::default().with_ways(2, 4);
        let cfg = g.machine_config(&System::Base.spec());
        assert_eq!(cfg.l1d.ways, 2);
        assert_eq!(cfg.l2.ways, 4);
        assert_eq!(cfg.l1d.n_sets(), cfg.l1d.n_lines() / 2);
    }

    #[test]
    fn geometry_builds_valid_configs() {
        for size in [16 * 1024, 32 * 1024, 64 * 1024] {
            for line in [16, 32, 64] {
                let g = Geometry {
                    l1d_size: size,
                    l1_line: line,
                    l2_line: line.max(32),
                    ..Geometry::default()
                };
                let cfg = g.machine_config(&System::BCPref.spec());
                assert_eq!(cfg.l1d.size, size);
                assert_eq!(cfg.l1d.line, line);
            }
        }
    }
}
