//! The decode-ahead helper under a full process core gauge (DESIGN.md
//! §17): a machine left to the gauge decodes every chunk itself, a machine
//! with the helper pinned on still runs it, and all three replays agree.
//! This file holds a single test because it fills the process-wide gauge,
//! which any concurrently running test in the same binary would perturb.

use oscache_memsys::{CoreGauge, Machine, MachineConfig};
use oscache_trace::{Addr, ChunkedTrace, DataClass, Mode, StreamBuilder};

#[test]
fn a_full_gauge_denies_the_helper_unless_pinned() {
    let mut b = StreamBuilder::new();
    b.set_mode(Mode::Os);
    for i in 0..4096u32 {
        b.read(Addr(0x0100_0000 + i * 4), DataClass::KernelOther);
    }
    let mut t = ChunkedTrace::new(1, Default::default());
    t.streams[0] = b.finish();
    let ct = t.rechunk(64);
    let n_chunks = ct.streams[0].n_chunks() as u64;
    let mut cfg = MachineConfig::base();
    cfg.n_cpus = 1;

    let gauge = CoreGauge::process();
    let full: Vec<_> = std::iter::from_fn(|| gauge.try_lease()).collect();
    assert!(gauge.try_lease().is_none());

    let mut gauged = Machine::new(cfg.clone(), &ct).unwrap();
    let mut pinned = Machine::new(cfg.clone(), &ct).unwrap();
    let mut off = Machine::new(cfg, &ct).unwrap();
    pinned.set_decode_prefetch(true);
    off.set_decode_prefetch(false);
    let r = gauged.run_mut();
    assert_eq!(r, pinned.run_mut(), "the pinned helper changed the replay");
    assert_eq!(r, off.run_mut());
    assert_eq!(gauged.state_digest(), pinned.state_digest());

    let o = gauged.overlap_stats();
    assert_eq!(o.prefetch_hits, 0, "a helper ran without a spare core");
    assert_eq!(o.sync_decodes, n_chunks);
    let p = pinned.overlap_stats();
    assert_eq!(p.prefetch_hits + p.sync_decodes, n_chunks);

    // The replays released their own leases; only ours remain.
    assert_eq!(gauge.busy(), full.len());
    drop(full);
    assert_eq!(gauge.busy(), 0);
}
