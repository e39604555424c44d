//! Config-specialization of the replay loop (DESIGN.md §15).
//!
//! Two decisions in the per-event loop of [`crate::Machine`] are *constant
//! for a whole replay* and pay to resolve at compile time: is statistics
//! recording on, and is auditing off. [`crate::Machine::run`] reads them
//! once per cell and dispatches to a monomorphized copy of the event loop
//! in which both are constants and the dead branches fold away. Every
//! other per-replay decision (update pages, victim cache, cancellation)
//! stays a run-time check: pinning those as well measured as noise.
//!
//! The mechanism is an enum-witness trait: every decision in the loop body
//! is written as `TRI.resolve(dynamic_check)` against an associated
//! [`Tri`] constant. The [`Gen`] witness leaves every decision `Dyn`, so
//! its instantiation compiles to exactly the historical dynamic code — it
//! *is* the generic machine, kept verbatim as the equivalence oracle that
//! `tests/specialize_oracle.rs` and `tests/specialize_matrix.rs` pin the
//! specialized loops against. The [`K`] witness pins recording as a
//! const-generic boolean and auditing off (2 instantiations); auditing
//! runs always fall back to [`Gen`] because the auditor cross-checks
//! bookkeeping the specialized fast paths would fold away.

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
                debug_assert!(dynamic, "specialization witness disagrees with config");
                true
            }
            Tri::Off => {
                debug_assert!(!dynamic, "specialization witness disagrees with config");
                false
            }
        }
    }
}

/// Witness carrying the per-replay specialization decisions as associated
/// constants. One loop body, written against these constants, serves both
/// the generic oracle ([`Gen`]) and the specialized instantiations ([`K`]).
pub(crate) trait Spec {
    /// Full statistics recording (`Machine::record`).
    const RECORD: Tri;
    /// `cfg.audit == AuditLevel::Off` (inclusion-exemption bookkeeping and
    /// the per-step audit hook fold away).
    const AUDIT_OFF: Tri;
}

/// The generic witness: every decision deferred to the runtime check.
/// This instantiation is the historical dynamic machine, bit for bit, and
/// serves as the equivalence oracle.
pub(crate) struct Gen;

impl Spec for Gen {
    const RECORD: Tri = Tri::Dyn;
    const AUDIT_OFF: Tri = Tri::Dyn;
}

/// The specialized witness: recording pinned as a const generic, auditing
/// pinned off (auditing replays use [`Gen`]).
pub(crate) struct K<const R: bool>;

impl<const R: bool> Spec for K<R> {
    const RECORD: Tri = if R { Tri::On } else { Tri::Off };
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
        assert!(!Tri::Off.resolve(false));
        assert!(K::<true>::RECORD == Tri::On && K::<false>::RECORD == Tri::Off);
        assert!(Gen::RECORD == Tri::Dyn && Gen::AUDIT_OFF == Tri::Dyn);
    }
}
