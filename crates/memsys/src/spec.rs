//! Config-specialization of the replay loop (DESIGN.md §15).
//!
//! The per-event loop in [`crate::Machine`] makes a handful of decisions
//! that are *constant for a whole replay* but were historically re-decided
//! millions of times per cell from full-value
//! [`MachineConfig`](crate::MachineConfig) state: is statistics recording
//! on, is auditing off, can any page be update-coherent, is there a victim
//! cache, can the run be cancelled. [`SpecKey`] captures those decisions
//! once per cell; [`crate::Machine::run`] dispatches on it to a
//! monomorphized copy of the event loop in which each decision is a
//! compile-time constant and the dead branches fold away.
//!
//! The mechanism is an enum-witness trait: every decision in the loop body
//! is written as `TRI.resolve(dynamic_check)` against an associated
//! [`Tri`] constant. The [`Gen`] witness leaves every decision `Dyn`, so
//! its instantiation compiles to exactly the historical dynamic code — it
//! *is* the generic machine, kept verbatim as the equivalence oracle that
//! `tests/specialize_oracle.rs` and `tests/specialize_matrix.rs` pin the
//! specialized variants against. The [`K`] witness pins four decisions as
//! const-generic booleans (16 instantiations); auditing runs always fall
//! back to [`Gen`] because the auditor cross-checks bookkeeping the
//! specialized fast paths would fold away.

use crate::config::{AuditLevel, BlockOpScheme, MachineConfig};

/// A three-valued specialization decision: resolved at compile time to a
/// constant, or deferred to the runtime configuration check.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Tri {
    /// Defer to the dynamic check (the generic machine).
    Dyn,
    /// Compile-time `true`. The dispatcher guarantees the dynamic check
    /// agrees; `resolve` debug-asserts it.
    On,
    /// Compile-time `false`.
    Off,
}

impl Tri {
    /// Resolves the decision against the dynamic check's value. `On`/`Off`
    /// fold to constants; `Dyn` compiles to the check itself.
    #[inline(always)]
    pub(crate) fn resolve(self, dynamic: bool) -> bool {
        match self {
            Tri::Dyn => dynamic,
            Tri::On => {
                debug_assert!(dynamic, "specialization key disagrees with config");
                true
            }
            Tri::Off => {
                debug_assert!(!dynamic, "specialization key disagrees with config");
                false
            }
        }
    }

    /// `false` only when the decision is `Off`: used for decisions where
    /// `On` still requires the dynamic check (e.g. a non-empty update-page
    /// set still needs the per-line membership test) and for skippable
    /// polls (an unarmed cancel token never needs polling).
    #[inline(always)]
    pub(crate) fn maybe(self) -> bool {
        !matches!(self, Tri::Off)
    }
}

/// Witness carrying the per-replay specialization decisions as associated
/// constants. One loop body, written against these constants, serves both
/// the generic oracle ([`Gen`]) and all specialized instantiations ([`K`]).
pub(crate) trait Spec {
    /// Full statistics recording (`Machine::record`).
    const RECORD: Tri;
    /// `cfg.audit == AuditLevel::Off` (inclusion-exemption bookkeeping and
    /// the per-step audit hook fold away).
    const AUDIT_OFF: Tri;
    /// `!cfg.update_pages.is_empty()`: `Off` folds the per-write page
    /// membership probe away; `On`/`Dyn` keep it.
    const UPDATES: Tri;
    /// `cfg.victim_lines > 0`: the victim-cache probe and FIFO maintenance.
    const VICTIM: Tri;
    /// `cfg.cancel.can_cancel()`: the periodic cancellation poll.
    const CANCEL: Tri;
}

/// The generic witness: every decision deferred to the runtime check.
/// This instantiation is the historical dynamic machine, bit for bit, and
/// serves as the equivalence oracle.
pub(crate) struct Gen;

impl Spec for Gen {
    const RECORD: Tri = Tri::Dyn;
    const AUDIT_OFF: Tri = Tri::Dyn;
    const UPDATES: Tri = Tri::Dyn;
    const VICTIM: Tri = Tri::Dyn;
    const CANCEL: Tri = Tri::Dyn;
}

/// The specialized witness: recording, update pages, victim cache, and
/// cancellation pinned as const generics; auditing pinned off (auditing
/// replays use [`Gen`]).
pub(crate) struct K<const R: bool, const U: bool, const V: bool, const C: bool>;

const fn tri(b: bool) -> Tri {
    if b {
        Tri::On
    } else {
        Tri::Off
    }
}

impl<const R: bool, const U: bool, const V: bool, const C: bool> Spec for K<R, U, V, C> {
    const RECORD: Tri = tri(R);
    const AUDIT_OFF: Tri = Tri::On;
    const UPDATES: Tri = tri(U);
    const VICTIM: Tri = tri(V);
    const CANCEL: Tri = tri(C);
}

/// The configuration decisions that select which monomorphized replay loop
/// a cell runs (DESIGN.md §15).
///
/// Derived once per replay by [`crate::Machine::spec_key`]; dispatch keys
/// on the four booleans when [`SpecKey::specializable`] holds, and falls
/// back to the generic loop otherwise. `scheme` is carried for diagnostics
/// but deliberately *not* monomorphized: block-operation events are rare
/// (the per-read scheme match is behind an `ActiveOp` presence check), and
/// folding it would multiply the instantiation count by five for no
/// measurable win.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SpecKey {
    /// Full statistics recording on (`false` in the profiling replay).
    pub record: bool,
    /// Configured audit level; only [`AuditLevel::Off`] is specialized.
    pub audit: AuditLevel,
    /// At least one page is update-coherent (§5.2 selective update).
    pub updates: bool,
    /// A victim cache is configured beside the L1D.
    pub victim: bool,
    /// The cancellation token is armed and must be polled.
    pub cancel: bool,
    /// Block-operation scheme (diagnostic only; not monomorphized).
    pub scheme: BlockOpScheme,
}

impl SpecKey {
    /// Reads the key off a configuration and the recording flag.
    pub(crate) fn of(cfg: &MachineConfig, record: bool) -> Self {
        SpecKey {
            record,
            audit: cfg.audit,
            updates: !cfg.update_pages.is_empty(),
            victim: cfg.victim_lines > 0,
            cancel: cfg.cancel.can_cancel(),
            scheme: cfg.block_scheme,
        }
    }

    /// Whether a monomorphized loop exists for this key. Auditing replays
    /// always run the generic machine: the strict/final auditors
    /// cross-check exactly the bookkeeping the fast paths fold away.
    pub fn specializable(&self) -> bool {
        self.audit == AuditLevel::Off
    }
}

impl std::fmt::Display for SpecKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let b = |v| if v { '+' } else { '-' };
        write!(
            f,
            "{}record{}updates{}victim{}cancel/{:?}/{}",
            b(self.record),
            b(self.updates),
            b(self.victim),
            b(self.cancel),
            self.audit,
            self.scheme.label()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tri_resolves() {
        assert!(Tri::Dyn.resolve(true));
        assert!(!Tri::Dyn.resolve(false));
        assert!(Tri::On.resolve(true));
        assert!(!Tri::Off.resolve(false));
        assert!(Tri::Dyn.maybe() && Tri::On.maybe() && !Tri::Off.maybe());
    }

    #[test]
    fn key_reads_config() {
        let cfg = MachineConfig::base();
        let key = SpecKey::of(&cfg, true);
        assert!(key.record && !key.updates && !key.victim && !key.cancel);
        assert!(key.specializable());
        let audited = cfg.clone().with_audit(AuditLevel::Strict);
        assert!(!SpecKey::of(&audited, true).specializable());
        let mut cfg = cfg;
        cfg.update_pages.insert(3);
        cfg.victim_lines = 4;
        cfg.cancel = crate::CancelToken::new();
        let key = SpecKey::of(&cfg, false);
        assert!(!key.record && key.updates && key.victim && key.cancel);
        let shown = key.to_string();
        assert!(
            shown.contains("-record") && shown.contains("+updates"),
            "{shown}"
        );
    }
}
