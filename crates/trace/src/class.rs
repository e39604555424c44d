//! Data-structure attribution for memory references.
//!
//! The paper maps "the large majority" of data accesses to the kernel data
//! structure being accessed (§2.2) and uses that attribution to break down
//! coherence misses (Table 5) and to drive the software optimizations (§5).
//! [`DataClass`] carries the same attribution on every generated reference.

use std::fmt;

/// The kernel or user data structure a memory reference touches.
///
/// Classes are chosen to cover every structure the paper names:
/// `vmmeter.v_intr`-style event counters, `freelist.size`, `cpievents`,
/// barriers, the 10 hottest kernel locks, system-resource pointers, page
/// tables, the process table, scheduler queues, the system-call table, the
/// high-resolution timer, and the buffer cache, plus generic kernel/user
/// data and block-operation payloads.
///
/// The discriminant (declaration order, which is also the order of
/// [`DataClass::all`] and of `Ord`) is the class's byte in encoded trace
/// chunks; [`DataClass::name`] is its spelling in trace dumps and run
/// journals.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
#[non_exhaustive]
#[repr(u8)]
pub enum DataClass {
    /// Barrier synchronization variables (gang-scheduling barriers, §5).
    BarrierVar,
    /// Kernel spin locks (accounting, physical memory allocation, job
    /// scheduling, high-resolution timer, §5).
    LockVar,
    /// Infrequently-communicated event counters: updated often by every CPU,
    /// read rarely (e.g. `vmmeter.v_intr`, §5).
    InfreqCounter,
    /// Frequently-shared variables with (partial) producer-consumer
    /// behaviour (e.g. system-resource-table process pointers, §5).
    FreqShared,
    /// `freelist` bookkeeping (`freelist.size`, free-page list head).
    Freelist,
    /// `cpievents`: per-interrupt information on cross-processor interrupts.
    CpiEvents,
    /// Page-table entries.
    PageTable,
    /// Process-table entries.
    ProcTable,
    /// Scheduler run-queue nodes.
    RunQueue,
    /// The table of system-call handler functions (§6, prefetchable).
    SyscallTable,
    /// The high-resolution-timer / accounting data structure (§6).
    TimerStruct,
    /// File-system buffer cache payloads.
    BufferCache,
    /// Kernel stacks.
    KernelStack,
    /// Any other statically- or dynamically-allocated kernel data.
    KernelOther,
    /// Physical page frames moved by page-sized block operations
    /// (fork copies, page zeroing).
    PageFrame,
    /// User-level application data.
    UserData,
    /// User stacks.
    UserStack,
}

impl DataClass {
    /// The class's name: its variant name, as written in trace dumps and
    /// run journals.
    pub fn name(self) -> &'static str {
        match self {
            DataClass::BarrierVar => "BarrierVar",
            DataClass::LockVar => "LockVar",
            DataClass::InfreqCounter => "InfreqCounter",
            DataClass::FreqShared => "FreqShared",
            DataClass::Freelist => "Freelist",
            DataClass::CpiEvents => "CpiEvents",
            DataClass::PageTable => "PageTable",
            DataClass::ProcTable => "ProcTable",
            DataClass::RunQueue => "RunQueue",
            DataClass::SyscallTable => "SyscallTable",
            DataClass::TimerStruct => "TimerStruct",
            DataClass::BufferCache => "BufferCache",
            DataClass::KernelStack => "KernelStack",
            DataClass::KernelOther => "KernelOther",
            DataClass::PageFrame => "PageFrame",
            DataClass::UserData => "UserData",
            DataClass::UserStack => "UserStack",
        }
    }

    /// The class named `name` ([`DataClass::name`]'s inverse).
    pub fn from_name(name: &str) -> Option<DataClass> {
        DataClass::all().iter().copied().find(|c| c.name() == name)
    }

    /// Whether references of this class are operating-system references when
    /// the CPU is in kernel mode. (User classes can also be touched by the
    /// kernel, e.g. `copyout`; OS/user attribution in the simulator is by
    /// execution *mode*, matching the paper, not by class.)
    #[inline]
    pub fn is_kernel_structure(self) -> bool {
        !matches!(self, DataClass::UserData | DataClass::UserStack)
    }

    /// The coherence-miss category this class belongs to in Table 5.
    #[inline]
    pub fn coherence_category(self) -> CoherenceCategory {
        match self {
            DataClass::BarrierVar => CoherenceCategory::Barriers,
            DataClass::LockVar => CoherenceCategory::Locks,
            DataClass::InfreqCounter => CoherenceCategory::InfreqComm,
            DataClass::FreqShared | DataClass::Freelist | DataClass::CpiEvents => {
                CoherenceCategory::FreqShared
            }
            _ => CoherenceCategory::Other,
        }
    }

    /// Whether this class is a synchronization variable (lock or barrier).
    #[inline]
    pub fn is_sync(self) -> bool {
        matches!(self, DataClass::BarrierVar | DataClass::LockVar)
    }

    /// The number of classes: the length of [`DataClass::all`], so a
    /// class's byte indexes a `[T; DataClass::COUNT]` table.
    pub const COUNT: usize = 17;

    /// All classes, for exhaustive iteration in tests and reports.
    pub fn all() -> &'static [DataClass] {
        use DataClass::*;
        const ALL: [DataClass; DataClass::COUNT] = [
            BarrierVar,
            LockVar,
            InfreqCounter,
            FreqShared,
            Freelist,
            CpiEvents,
            PageTable,
            ProcTable,
            RunQueue,
            SyscallTable,
            TimerStruct,
            BufferCache,
            KernelStack,
            KernelOther,
            PageFrame,
            UserData,
            UserStack,
        ];
        &ALL
    }
}

impl fmt::Display for DataClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Coherence-miss breakdown categories of Table 5.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum CoherenceCategory {
    /// Barrier synchronization (35–46% of coherence misses except Shell).
    Barriers,
    /// Infrequently-communicated variables (counters; 20–25%).
    InfreqComm,
    /// Frequently-shared variables (10–25%).
    FreqShared,
    /// Kernel locks (2–19%).
    Locks,
    /// Everything else, including false sharing (12–26%).
    Other,
}

impl CoherenceCategory {
    /// All categories in Table 5 row order.
    pub fn all() -> &'static [CoherenceCategory] {
        &[
            CoherenceCategory::Barriers,
            CoherenceCategory::InfreqComm,
            CoherenceCategory::FreqShared,
            CoherenceCategory::Locks,
            CoherenceCategory::Other,
        ]
    }

    /// The row label used in Table 5.
    pub fn label(self) -> &'static str {
        match self {
            CoherenceCategory::Barriers => "Barriers",
            CoherenceCategory::InfreqComm => "Infreq. Com.",
            CoherenceCategory::FreqShared => "Freq. Shared",
            CoherenceCategory::Locks => "Locks",
            CoherenceCategory::Other => "Other",
        }
    }
}

impl fmt::Display for CoherenceCategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sync_classes_map_to_sync_categories() {
        assert_eq!(
            DataClass::BarrierVar.coherence_category(),
            CoherenceCategory::Barriers
        );
        assert_eq!(
            DataClass::LockVar.coherence_category(),
            CoherenceCategory::Locks
        );
        assert!(DataClass::BarrierVar.is_sync());
        assert!(DataClass::LockVar.is_sync());
        assert!(!DataClass::PageTable.is_sync());
    }

    #[test]
    fn paper_examples_map_to_freq_shared() {
        // freelist.size and cpievents are the paper's §5.2 update-set examples.
        assert_eq!(
            DataClass::Freelist.coherence_category(),
            CoherenceCategory::FreqShared
        );
        assert_eq!(
            DataClass::CpiEvents.coherence_category(),
            CoherenceCategory::FreqShared
        );
    }

    #[test]
    fn count_matches_all_and_bytes_index_it() {
        assert_eq!(DataClass::all().len(), DataClass::COUNT);
        for (i, &c) in DataClass::all().iter().enumerate() {
            assert_eq!(c as usize, i, "{c}");
        }
    }

    #[test]
    fn user_classes_are_not_kernel_structures() {
        assert!(!DataClass::UserData.is_kernel_structure());
        assert!(!DataClass::UserStack.is_kernel_structure());
        assert!(DataClass::PageTable.is_kernel_structure());
    }

    #[test]
    fn all_lists_are_exhaustive_and_unique() {
        let all = DataClass::all();
        for (i, a) in all.iter().enumerate() {
            for b in &all[i + 1..] {
                assert_ne!(a, b);
            }
        }
        assert_eq!(CoherenceCategory::all().len(), 5);
    }

    #[test]
    fn names_round_trip_and_match_debug() {
        for (i, &c) in DataClass::all().iter().enumerate() {
            assert_eq!(c as usize, i, "discriminant is the all() index");
            assert_eq!(c.name(), format!("{c:?}"));
            assert_eq!(DataClass::from_name(c.name()), Some(c));
        }
        assert_eq!(DataClass::from_name("NoSuchClass"), None);
    }

    #[test]
    fn every_class_has_a_category() {
        for &c in DataClass::all() {
            // must not panic; counters land in InfreqComm
            let _ = c.coherence_category();
        }
        assert_eq!(
            DataClass::InfreqCounter.coherence_category(),
            CoherenceCategory::InfreqComm
        );
    }
}
