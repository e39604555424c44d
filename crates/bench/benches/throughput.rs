//! Simulator throughput: events replayed per second, per workload and per
//! block-operation scheme. Plain `harness = false` benchmark: run with
//! `cargo bench -p oscache-bench --bench throughput`.

use oscache_core::{Geometry, System, TraceCache};
use oscache_memsys::{Machine, MachineConfig};
use oscache_workloads::{build_chunked, BuildOptions, Workload};
use std::sync::OnceLock;
use std::time::Instant;

const SCALE: f64 = 0.05;
const ITERS: u32 = 5;

/// One shared trace cache for the whole suite: each workload trace is
/// built exactly once, no matter how many benchmark groups replay it.
fn cache() -> &'static TraceCache {
    static C: OnceLock<TraceCache> = OnceLock::new();
    C.get_or_init(TraceCache::new)
}

fn opts() -> BuildOptions {
    BuildOptions {
        scale: SCALE,
        ..Default::default()
    }
}

/// Times `f` over [`ITERS`] runs and reports the best-iteration rate.
fn bench(group: &str, label: &str, events: u64, mut f: impl FnMut()) {
    f(); // warm-up
    let mut best = f64::INFINITY;
    for _ in 0..ITERS {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    if events > 0 {
        println!(
            "{group}/{label:<12} {:>9.3} ms  {:>8.2} Mev/s",
            1e3 * best,
            events as f64 / best / 1e6
        );
    } else {
        println!("{group}/{label:<12} {:>9.3} ms", 1e3 * best);
    }
}

fn bench_workload_replay() {
    for w in Workload::all() {
        let trace = cache().base_chunked(w, opts());
        let events = trace.total_events() as u64;
        bench("replay_base", w.name(), events, || {
            let s = Machine::new(MachineConfig::base(), &trace)
                .unwrap()
                .run()
                .unwrap();
            std::hint::black_box(&s);
        });
    }
}

fn bench_schemes() {
    // Cache hit: bench_workload_replay already built this trace.
    let trace = cache().base_chunked(Workload::Trfd4, opts());
    let events = trace.total_events() as u64;
    for sys in [
        System::Base,
        System::BlkPref,
        System::BlkBypass,
        System::BlkByPref,
        System::BlkDma,
    ] {
        let cfg = Geometry::default().machine_config(&sys.spec());
        bench("replay_schemes", sys.label(), events, || {
            let s = Machine::new(cfg.clone(), &trace).unwrap().run().unwrap();
            std::hint::black_box(&s);
        });
    }
}

fn bench_trace_generation() {
    for w in Workload::all() {
        bench("generate", w.name(), 0, || {
            let t = build_chunked(
                w,
                BuildOptions {
                    scale: SCALE,
                    ..Default::default()
                },
            );
            std::hint::black_box(&t);
        });
    }
}

fn main() {
    bench_workload_replay();
    bench_schemes();
    bench_trace_generation();
}
