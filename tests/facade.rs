//! The facade crate exposes a coherent public API: everything a downstream
//! user needs is reachable through `oscache::*`.

use oscache::core::{run_system, Repro, System};
use oscache::kernel::{Kernel, KernelLock};
use oscache::memsys::{BlockOpScheme, Machine, MachineConfig};
use oscache::trace::{ChunkedTrace, CodeLayout, DataClass, Mode, StreamBuilder, TraceMeta};
use oscache::workloads::{build_chunked, BuildOptions, Workload};

#[test]
fn hand_built_trace_through_facade() {
    let mut code = CodeLayout::new();
    let kernel = Kernel::new(&mut code);
    let mut b = StreamBuilder::new();
    b.set_mode(Mode::Os);
    let lid = kernel.lock_id(KernelLock::Sched);
    b.lock_acquire(lid, kernel.layout.lock_addr(KernelLock::Sched));
    b.read(kernel.layout.runq_head_addr(), DataClass::RunQueue);
    b.lock_release(lid, kernel.layout.lock_addr(KernelLock::Sched));
    let mut t = ChunkedTrace::new(
        4,
        TraceMeta {
            workload: "facade".into(),
            code,
            vars: kernel.layout.vars.clone(),
            kernel_data: Vec::new(),
        },
    );
    t.streams[0] = b.finish();
    let stats = Machine::new(MachineConfig::base(), &t)
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(stats.total().dreads.os, 2); // lock word + runq head
}

#[test]
fn workload_to_system_pipeline() {
    let t = build_chunked(
        Workload::Shell,
        BuildOptions {
            scale: 0.05,
            seed: 2,
            ..Default::default()
        },
    );
    let r = run_system(&t, System::BlkDma);
    assert_eq!(r.spec.block_scheme, BlockOpScheme::Dma);
    assert!(r.stats.bus.dma_transfers > 0);
}

#[test]
fn repro_driver_produces_tables() {
    let mut repro = Repro::new(0.05);
    let t1 = repro.table1();
    let rendered = format!("{t1}");
    assert!(rendered.contains("OS Time"));
    assert!(rendered.contains("TRFD_4"));
    let f2 = repro.figure2();
    assert!(format!("{f2}").contains("Blk_Dma"));
}
