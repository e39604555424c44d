//! The core gauge: how many threads of this process are doing cell work,
//! so the decode-ahead helper (DESIGN.md §17) starts only on a spare core.
//!
//! A worker thread holds a [`CoreGauge::lease`] for as long as it works.
//! Such a lease is always granted — work that is already running is
//! counted, never throttled — and a thread counts once however deeply its
//! leases nest (a supervised cell around a machine replay). A helper
//! thread needs a [`CoreGauge::try_lease`], which is refused once every
//! core is busy: on a box whose cores all run workers, a helper would only
//! contend with them for cycles and cache.

use std::cell::RefCell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Hardware threads the OS grants this process (at least 1). The one
/// source of the core count: the runner's default worker count and the
/// process gauge's capacity both read it.
pub fn available_cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Counts busy threads against a fixed capacity of cores.
#[derive(Debug)]
pub struct CoreGauge {
    /// Distinguishes gauges in the per-thread record of held leases.
    id: usize,
    capacity: usize,
    /// Leases counted now. `Relaxed` throughout: the count publishes no
    /// other data, and a stale read only moves one helper decision.
    busy: AtomicUsize,
}

thread_local! {
    /// Ids of the gauges the current thread holds a [`ThreadLease`] on.
    static HELD: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

impl CoreGauge {
    /// A gauge over `capacity` cores, none busy.
    pub fn new(capacity: usize) -> Self {
        static NEXT_ID: AtomicUsize = AtomicUsize::new(0);
        CoreGauge {
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            capacity,
            busy: AtomicUsize::new(0),
        }
    }

    /// The process-wide gauge, sized by [`available_cores`].
    pub fn process() -> &'static CoreGauge {
        static PROCESS: OnceLock<CoreGauge> = OnceLock::new();
        PROCESS.get_or_init(|| CoreGauge::new(available_cores()))
    }

    /// The number of cores this gauge shares out.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The number of leases currently counted.
    pub fn busy(&self) -> usize {
        self.busy.load(Ordering::Relaxed)
    }

    /// Marks the calling thread busy until the lease drops. Never blocks
    /// and never refuses, even past capacity. If the thread already holds
    /// a lease on this gauge, the new one is not counted again.
    pub fn lease(&self) -> ThreadLease<'_> {
        let nested = HELD.with(|held| {
            let mut held = held.borrow_mut();
            let nested = held.contains(&self.id);
            if !nested {
                held.push(self.id);
            }
            nested
        });
        ThreadLease {
            counted: (!nested).then(|| {
                self.busy.fetch_add(1, Ordering::Relaxed);
                Lease { gauge: self }
            }),
            _not_send: PhantomData,
        }
    }

    /// Claims a spare core for a helper thread: `None` when every core is
    /// already busy. The lease may move to the helper and is released
    /// when it drops there.
    pub fn try_lease(&self) -> Option<Lease<'_>> {
        self.busy
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
                (n < self.capacity).then_some(n + 1)
            })
            .ok()
            .map(|_| Lease { gauge: self })
    }
}

/// One counted core; released on drop (also during unwinding).
#[derive(Debug)]
#[must_use = "the core is released as soon as the lease drops"]
pub struct Lease<'g> {
    gauge: &'g CoreGauge,
}

impl Drop for Lease<'_> {
    fn drop(&mut self) {
        self.gauge.busy.fetch_sub(1, Ordering::Relaxed);
    }
}

/// A worker thread's lease from [`CoreGauge::lease`]. Tied to the thread
/// that took it, because nesting is tracked per thread.
#[derive(Debug)]
#[must_use = "the thread counts as busy only while the lease lives"]
pub struct ThreadLease<'g> {
    /// The counted core, or `None` for a nested lease.
    counted: Option<Lease<'g>>,
    _not_send: PhantomData<*const ()>,
}

impl Drop for ThreadLease<'_> {
    fn drop(&mut self) {
        if let Some(lease) = &self.counted {
            let id = lease.gauge.id;
            HELD.with(|held| held.borrow_mut().retain(|&h| h != id));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn two_busy_threads_fill_two_cores() {
        let gauge = CoreGauge::new(2);
        let _mine = gauge.lease();
        let spare = gauge.try_lease();
        assert!(spare.is_some(), "one busy thread leaves a spare core");
        drop(spare);
        std::thread::scope(|s| {
            s.spawn(|| {
                let _other = gauge.lease();
                assert_eq!(gauge.busy(), 2);
                assert!(gauge.try_lease().is_none(), "no spare core at capacity");
            });
        });
        assert_eq!(gauge.busy(), 1);
    }

    #[test]
    fn leases_release_on_drop_and_unwind() {
        let gauge = CoreGauge::new(2);
        drop(gauge.lease());
        assert_eq!(gauge.busy(), 0);
        let spare = gauge.try_lease().expect("idle gauge");
        assert_eq!(gauge.busy(), 1);
        drop(spare);
        assert_eq!(gauge.busy(), 0);
        let r = catch_unwind(AssertUnwindSafe(|| {
            let _mine = gauge.lease();
            let _spare = gauge.try_lease();
            assert_eq!(gauge.busy(), 2);
            panic!("worker dies holding leases");
        }));
        assert!(r.is_err());
        assert_eq!(gauge.busy(), 0);
        // The unwound thread lease also cleared the nesting record.
        let _again = gauge.lease();
        assert_eq!(gauge.busy(), 1);
    }

    #[test]
    fn nested_leases_on_one_thread_count_once() {
        let gauge = CoreGauge::new(2);
        let outer = gauge.lease();
        let inner = gauge.lease();
        assert_eq!(gauge.busy(), 1);
        assert!(gauge.try_lease().is_some());
        drop(inner);
        assert_eq!(gauge.busy(), 1, "dropping the nested lease frees nothing");
        drop(outer);
        assert_eq!(gauge.busy(), 0);
        // Nesting is per gauge: a lease on another gauge still counts there.
        let other = CoreGauge::new(1);
        let _a = gauge.lease();
        let _b = other.lease();
        assert_eq!((gauge.busy(), other.busy()), (1, 1));
    }

    #[test]
    fn thread_leases_are_granted_past_capacity() {
        let gauge = CoreGauge::new(1);
        let _mine = gauge.lease();
        std::thread::scope(|s| {
            s.spawn(|| {
                let _other = gauge.lease();
                assert_eq!(gauge.busy(), 2);
            });
        });
        assert!(gauge.try_lease().is_none());
    }

    #[test]
    fn process_gauge_has_one_core_count() {
        assert_eq!(CoreGauge::process().capacity(), available_cores());
        assert!(available_cores() >= 1);
    }
}
