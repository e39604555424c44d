//! Config-specialization of the replay loop (DESIGN.md §15).
//!
//! One decision in the per-event loop of [`crate::Machine`] is *constant
//! for a whole replay* and pays to resolve at compile time: is auditing
//! off. [`crate::Machine::run`] reads it once per cell and dispatches to a
//! monomorphized copy of the event loop in which it is a constant and the
//! dead branches fold away. Every other per-replay decision (update pages,
//! victim cache, cancellation) stays a run-time check: pinning those as
//! well measured as noise.
//!
//! The mechanism is an enum-witness trait: every such decision in the loop
//! body is written as `TRI.resolve(dynamic_check)` against an associated
//! [`Tri`] constant. The [`Gen`] witness leaves the decision `Dyn`, so its
//! instantiation compiles to exactly the historical dynamic code — it
//! *is* the generic machine, kept verbatim as the equivalence oracle that
//! `tests/specialize_oracle.rs` and `tests/specialize_matrix.rs` pin the
//! specialized loop against. The [`K`] witness pins auditing off;
//! auditing runs always fall back to [`Gen`] because the auditor
//! cross-checks bookkeeping the specialized fast paths would fold away.

/// A specialization decision: resolved at compile time to a constant, or
/// deferred to the runtime configuration check.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Tri {
    /// Defer to the dynamic check (the generic machine).
    Dyn,
    /// Compile-time `true`. The dispatcher guarantees the dynamic check
    /// agrees; `resolve` debug-asserts it.
    On,
}

impl Tri {
    /// Resolves the decision against the dynamic check's value. `On` folds
    /// to a constant; `Dyn` compiles to the check itself.
    #[inline(always)]
    pub(crate) fn resolve(self, dynamic: bool) -> bool {
        match self {
            Tri::Dyn => dynamic,
            Tri::On => {
                debug_assert!(dynamic, "specialization witness disagrees with config");
                true
            }
        }
    }
}

/// Witness carrying the per-replay specialization decision as an
/// associated constant. One loop body, written against it, serves both
/// the generic oracle ([`Gen`]) and the specialized instantiation ([`K`]).
pub(crate) trait Spec {
    /// `cfg.audit == AuditLevel::Off` (inclusion-exemption bookkeeping and
    /// the per-step audit hook fold away).
    const AUDIT_OFF: Tri;
}

/// The generic witness: the decision deferred to the runtime check. This
/// instantiation is the historical dynamic machine, bit for bit, and
/// serves as the equivalence oracle.
pub(crate) struct Gen;

impl Spec for Gen {
    const AUDIT_OFF: Tri = Tri::Dyn;
}

/// The specialized witness: auditing pinned off (auditing replays use
/// [`Gen`]).
pub(crate) struct K;

impl Spec for K {
    const AUDIT_OFF: Tri = Tri::On;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tri_resolves() {
        assert!(Tri::Dyn.resolve(true));
        assert!(!Tri::Dyn.resolve(false));
        assert!(Tri::On.resolve(true));
        assert!(K::AUDIT_OFF == Tri::On && Gen::AUDIT_OFF == Tri::Dyn);
    }
}
