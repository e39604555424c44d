//! Workload metadata travelling with a trace.

use crate::{Addr, CodeLayout, DataClass};

/// How the software-optimization passes may treat a kernel variable.
///
/// The paper's optimizations act on specific variables found by manual trace
/// analysis: event counters become per-CPU (`§5.1`), and a 384-byte core of
/// barriers, the 10 hottest locks, and a few producer-consumer variables is
/// mapped with an update protocol (`§5.2`). The generator labels variables
/// with their ground-truth role; the automated analysis pass must *rediscover*
/// the sets from reference behaviour and is tested against these labels.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum VarRole {
    /// An event counter: incremented frequently by all CPUs, read rarely.
    Counter,
    /// A barrier synchronization variable.
    Barrier,
    /// A kernel lock word.
    Lock,
    /// A frequently-shared variable; `producer_consumer` marks those whose
    /// sharing pattern (partially) favours an update protocol.
    FreqShared {
        /// True when writes by one CPU are usually followed by reads from
        /// other CPUs (the pattern worth updating, §5.2).
        producer_consumer: bool,
    },
    /// Ordinary kernel data.
    Plain,
}

/// A named, statically-allocated kernel variable.
#[derive(Clone, Debug)]
pub struct KernelVar {
    /// Symbol name, e.g. `"vmmeter.v_intr"`.
    pub name: String,
    /// First byte.
    pub addr: Addr,
    /// Size in bytes.
    pub size: u32,
    /// Attribution class its references carry.
    pub class: DataClass,
    /// Ground-truth role (see [`VarRole`]).
    pub role: VarRole,
    /// Variables sharing a false-sharing group id live in the same cache
    /// line but are accessed by different CPUs; the relocation pass should
    /// split them (§5.1).
    pub false_shared_group: Option<u16>,
}

impl KernelVar {
    /// True if `addr` falls inside this variable.
    pub fn contains(&self, addr: Addr) -> bool {
        addr >= self.addr && addr.0 < self.addr.0 + self.size
    }
}

/// Metadata travelling with a [`ChunkedTrace`](crate::ChunkedTrace).
#[derive(Clone, Debug, Default)]
pub struct TraceMeta {
    /// Human-readable workload name (e.g. `"TRFD_4"`).
    pub workload: String,
    /// Code map for instruction-fetch replay and hot-spot attribution.
    pub code: CodeLayout,
    /// Statically-allocated kernel variables (the optimization passes'
    /// candidate set; dynamically-allocated structures are excluded, as in
    /// the paper's conflict analysis, §6).
    pub vars: Vec<KernelVar>,
    /// `(base, len)` ranges of all kernel data regions (tables, stacks,
    /// buffer cache) — the footprint a *pure* update protocol would have
    /// to cover (§5.2's comparison point).
    pub kernel_data: Vec<(Addr, u32)>,
}

impl TraceMeta {
    /// Finds the kernel variable containing `addr`, if any.
    pub fn var_at(&self, addr: Addr) -> Option<&KernelVar> {
        self.vars.iter().find(|v| v.contains(addr))
    }

    /// Finds a kernel variable by name.
    pub fn var_named(&self, name: &str) -> Option<&KernelVar> {
        self.vars.iter().find(|v| v.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ChunkedStream, ChunkedTrace, CpuId, Event, StreamBuilder, CHUNK_EVENTS};

    fn var(name: &str, addr: u32, size: u32) -> KernelVar {
        KernelVar {
            name: name.to_string(),
            addr: Addr(addr),
            size,
            class: DataClass::KernelOther,
            role: VarRole::Plain,
            false_shared_group: None,
        }
    }

    #[test]
    fn var_containment_is_half_open() {
        let v = var("x", 100, 8);
        assert!(!v.contains(Addr(99)));
        assert!(v.contains(Addr(100)));
        assert!(v.contains(Addr(107)));
        assert!(!v.contains(Addr(108)));
    }

    #[test]
    fn meta_lookup_by_addr_and_name() {
        let meta = TraceMeta {
            workload: "t".into(),
            code: CodeLayout::new(),
            vars: vec![var("a", 0, 4), var("b", 64, 4)],
            kernel_data: Vec::new(),
        };
        assert_eq!(meta.var_at(Addr(65)).unwrap().name, "b");
        assert!(meta.var_at(Addr(32)).is_none());
        assert_eq!(meta.var_named("a").unwrap().addr, Addr(0));
        assert!(meta.var_named("zz").is_none());
    }

    #[test]
    fn trace_counts_aggregate_streams() {
        let mut t = ChunkedTrace::new(2, TraceMeta::default());
        let mut b = StreamBuilder::new();
        b.read(Addr(0), DataClass::UserData);
        b.write(Addr(4), DataClass::UserData);
        t.streams[0] = b.finish();
        t.streams[1] = ChunkedStream::from_events(vec![Event::Idle { cycles: 10 }], CHUNK_EVENTS);
        let count = |f: fn(&Event) -> bool| {
            let events = t.streams.iter().flat_map(ChunkedStream::iter);
            events.filter(&f).count()
        };
        assert_eq!(t.n_cpus(), 2);
        assert_eq!(t.total_events(), 3);
        assert_eq!(count(Event::is_read), 1);
        assert_eq!(count(Event::is_write), 1);
        assert_eq!(t.streams[CpuId(1).index()].len(), 1);
    }
}
