//! Behavioural tests of the OS service generators: each service must
//! touch the structures the paper attributes to it, with balanced
//! synchronization and sensible volumes.

use oscache_kernel::{Fill, Kernel, KernelLock, N_COUNTERS};
use oscache_trace::rng::SmallRng;
use oscache_trace::{Addr, CodeLayout, DataClass, Event, Mode, StreamBuilder};

fn kernel() -> Kernel {
    let mut code = CodeLayout::new();
    Kernel::new(&mut code)
}

fn classes_of(s: &oscache_trace::ChunkedStream) -> Vec<DataClass> {
    s.iter().filter_map(|e| e.data_class()).collect()
}

fn count_class(s: &oscache_trace::ChunkedStream, c: DataClass) -> usize {
    classes_of(s).into_iter().filter(|&x| x == c).count()
}

#[test]
fn syscall_touches_dispatch_table_and_current_proc() {
    let k = kernel();
    let mut rng = SmallRng::seed_from_u64(1);
    let mut b = StreamBuilder::new();
    b.set_mode(Mode::Os);
    k.syscall_entry(&mut b, &mut rng, 1, 9);
    let s = b.finish();
    assert!(count_class(&s, DataClass::SyscallTable) >= 1);
    assert!(count_class(&s, DataClass::ProcTable) >= 10);
    assert!(count_class(&s, DataClass::KernelStack) >= 10);
    assert_eq!(count_class(&s, DataClass::InfreqCounter), 2); // one rmw
}

#[test]
fn page_fault_scans_ptes_sequentially() {
    let k = kernel();
    let mut rng = SmallRng::seed_from_u64(2);
    let mut b = StreamBuilder::new();
    b.set_mode(Mode::Os);
    k.page_fault(&mut b, &mut rng, 0, 5, 100, 7, Fill::Soft);
    let s = b.finish();
    let pte_reads: Vec<Addr> = s
        .iter()
        .filter_map(|e| match e {
            Event::Read {
                addr,
                class: DataClass::PageTable,
            } => Some(addr),
            _ => None,
        })
        .collect();
    assert!(pte_reads.len() >= 4, "fault must scan several PTEs");
    // Sequential: consecutive PTE reads are 4 bytes apart.
    for w in pte_reads.windows(2) {
        assert_eq!(w[1].0 - w[0].0, 4, "PTE scan must be sequential");
    }
    // The free-list lock protects the allocation.
    let acquires = s
        .iter()
        .filter(|e| matches!(e, Event::LockAcquire { .. }))
        .count();
    assert_eq!(acquires, 1);
}

#[test]
fn page_fault_fill_kinds_differ() {
    let k = kernel();
    let rng = SmallRng::seed_from_u64(3);
    let count_ops = |fill: Fill| {
        let mut b = StreamBuilder::new();
        b.set_mode(Mode::Os);
        k.page_fault(&mut b, &mut rng.clone(), 0, 5, 100, 7, fill);
        let s = b.finish();
        s.iter()
            .filter_map(|e| match e {
                Event::BlockOpBegin { op } => Some(op.kind),
                _ => None,
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(count_ops(Fill::Soft), vec![]);
    assert_eq!(count_ops(Fill::Zero), vec![oscache_trace::BlockKind::Zero]);
    let buf = k.layout.buffer_addr(1);
    assert_eq!(
        count_ops(Fill::From(buf)),
        vec![oscache_trace::BlockKind::Copy]
    );
}

#[test]
fn context_switch_reads_the_target_process() {
    let k = kernel();
    let mut rng = SmallRng::seed_from_u64(4);
    let mut b = StreamBuilder::new();
    b.set_mode(Mode::Os);
    k.context_switch(&mut b, &mut rng, 2, 17);
    let s = b.finish();
    let proc17 = k.layout.proc_addr(17);
    let target_reads = s
        .iter()
        .filter(|e| {
            matches!(e, Event::Read { addr, class: DataClass::ProcTable }
                if addr.0 >= proc17.0 && addr.0 < proc17.0 + 512)
        })
        .count();
    assert!(target_reads >= 10, "resume must read the target's entry");
    assert!(count_class(&s, DataClass::RunQueue) >= 3);
    assert!(count_class(&s, DataClass::FreqShared) >= 2);
}

#[test]
fn timer_tick_takes_timer_and_accounting_locks() {
    let k = kernel();
    let mut rng = SmallRng::seed_from_u64(5);
    let mut b = StreamBuilder::new();
    b.set_mode(Mode::Os);
    k.timer_tick(&mut b, &mut rng, 0, 4);
    let s = b.finish();
    let lock_addrs: Vec<Addr> = s
        .iter()
        .filter_map(|e| match e {
            Event::LockAcquire { addr, .. } => Some(addr),
            _ => None,
        })
        .collect();
    assert!(lock_addrs.contains(&k.layout.lock_addr(KernelLock::Timer)));
    assert!(lock_addrs.contains(&k.layout.lock_addr(KernelLock::Accounting)));
    assert!(count_class(&s, DataClass::TimerStruct) >= 4);
}

#[test]
fn xproc_pair_touches_cpievents_and_v_intr() {
    let k = kernel();
    let mut send = StreamBuilder::new();
    send.set_mode(Mode::Os);
    k.xproc_send(&mut send, 3);
    let s = send.finish();
    assert_eq!(s.iter().filter(Event::is_write).count(), 1);
    assert_eq!(
        s.iter().nth(1).unwrap().data_addr().unwrap(),
        k.layout.cpievents_addr(3)
    );
    let mut h = StreamBuilder::new();
    h.set_mode(Mode::Os);
    k.xproc_handle(&mut h, 3);
    let s = h.finish();
    assert!(count_class(&s, DataClass::CpiEvents) >= 1);
    // v_intr is counter 0.
    let v_intr = k.layout.counter_addr(0);
    assert!(s.iter().any(|e| e.data_addr() == Some(v_intr)));
}

#[test]
fn pager_sweep_reads_every_counter() {
    let k = kernel();
    let mut rng = SmallRng::seed_from_u64(7);
    let mut b = StreamBuilder::new();
    b.set_mode(Mode::Os);
    k.pager_sweep(&mut b, &mut rng);
    let s = b.finish();
    for c in 0..N_COUNTERS {
        let addr = k.layout.counter_addr(c);
        assert!(
            s.iter().any(|e| e.data_addr() == Some(addr)),
            "counter {c} unread"
        );
    }
}

#[test]
fn fork_pages_copies_the_parents_address_space() {
    let k = kernel();
    let mut rng = SmallRng::seed_from_u64(8);
    let mut b = StreamBuilder::new();
    b.set_mode(Mode::Os);
    let parent_base = k.layout.user_data(5);
    let child_base = k.layout.user_data(9);
    k.fork_pages(&mut b, &mut rng, 0, 5, 9, parent_base, child_base, 2);
    let s = b.finish();
    let ops: Vec<_> = s
        .iter()
        .filter_map(|e| match e {
            Event::BlockOpBegin { op } => Some(op),
            _ => None,
        })
        .collect();
    assert_eq!(ops.len(), 2);
    assert_eq!(ops[0].src, parent_base);
    assert_eq!(ops[0].dst, child_base);
    assert_eq!(ops[1].src.0, parent_base.0 + 4096);
    // PTE copies appear.
    assert!(count_class(&s, DataClass::PageTable) >= 40);
}

#[test]
fn work_scale_controls_service_volume() {
    let mut code = CodeLayout::new();
    let mut k_small = Kernel::new(&mut code);
    k_small.work_scale = 0.5;
    let mut code2 = CodeLayout::new();
    let mut k_big = Kernel::new(&mut code2);
    k_big.work_scale = 2.0;
    let run = |k: &Kernel| {
        let mut rng = SmallRng::seed_from_u64(9);
        let mut b = StreamBuilder::new();
        b.set_mode(Mode::Os);
        k.syscall_entry(&mut b, &mut rng, 0, 4);
        b.finish().len()
    };
    let small = run(&k_small);
    let big = run(&k_big);
    assert!(
        big > small * 2,
        "work_scale must scale service volume: {small} vs {big}"
    );
}

#[test]
fn file_ops_move_the_requested_bytes() {
    let k = kernel();
    let mut rng = SmallRng::seed_from_u64(10);
    let mut b = StreamBuilder::new();
    b.set_mode(Mode::Os);
    k.file_read(&mut b, &mut rng, 0, 4, 512, 2);
    let s = b.finish();
    let op = s
        .iter()
        .find_map(|e| match e {
            Event::BlockOpBegin { op } => Some(op),
            _ => None,
        })
        .expect("file read must copy");
    assert_eq!(op.len, 512);
    assert_eq!(op.src, k.layout.buffer_addr(2));
    assert_eq!(op.src_class, DataClass::BufferCache);
    assert_eq!(op.dst_class, DataClass::UserData);
}

#[test]
fn misc_lookup_probability_gates_cold_chases() {
    let mut code = CodeLayout::new();
    let mut k = Kernel::new(&mut code);
    k.misc_lookup = 0.0;
    let count_proc_reads = |k: &Kernel| {
        let mut rng = SmallRng::seed_from_u64(11);
        let mut n = 0;
        for _ in 0..50 {
            let mut b = StreamBuilder::new();
            b.set_mode(Mode::Os);
            k.syscall_entry(&mut b, &mut rng, 0, 4);
            n += count_class(&b.finish(), DataClass::ProcTable);
        }
        n
    };
    let without = count_proc_reads(&k);
    k.misc_lookup = 1.0;
    let with = count_proc_reads(&k);
    assert!(
        with > without + 100,
        "misc lookups must add scattered reads: {without} vs {with}"
    );
}
