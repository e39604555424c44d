//! Block-operation deep dive (the paper's §4 motivation): a hand-built
//! fork-storm trace — processes forking chains of children — run under
//! every block-operation scheme.
//!
//! Shows why simple bypassing backfires (inside reuses: the destination of
//! one copy is the source of the next) while the DMA-like scheme removes
//! all block misses.
//!
//! ```text
//! cargo run --release --example fork_storm
//! ```

use oscache::kernel::Kernel;
use oscache::memsys::{BlockOpScheme, Machine, MachineConfig};
use oscache::trace::{ChunkedTrace, CodeLayout, Mode, TraceMeta};
use oscache_trace::rng::SmallRng;

fn main() {
    // Build a 4-CPU trace in which each CPU runs a chain of forks: the
    // child address space of one fork is the parent of the next.
    let mut code = CodeLayout::new();
    let kernel = Kernel::new(&mut code);
    let mut rng = SmallRng::seed_from_u64(42);
    let mut streams = Vec::new();
    for cpu in 0..4usize {
        let mut b = oscache::trace::StreamBuilder::new();
        b.set_mode(Mode::Os);
        let mut parent = 4 + cpu as u32;
        for gen in 0..24u32 {
            let child = 8 + (parent + 4) % 16;
            let pbase = kernel.layout.user_data(parent);
            let cbase = kernel.layout.user_data(child);
            kernel.fork_pages(&mut b, &mut rng, cpu, parent, child, pbase, cbase, 3);
            // The child touches its pages before forking again.
            for k in 0..128u32 {
                b.read(
                    cbase.offset((gen * 97 + k * 16) % (3 * 4096)),
                    oscache::trace::DataClass::UserData,
                );
            }
            parent = child;
        }
        streams.push(b.finish());
    }
    let mut trace = ChunkedTrace::new(
        4,
        TraceMeta {
            workload: "fork_storm".into(),
            code,
            vars: kernel.layout.vars.clone(),
            kernel_data: Vec::new(),
        },
    );
    trace.streams = streams;

    println!("fork-storm: 4 CPUs x 24 chained forks x 3 pages each\n");
    println!(
        "{:<12} {:>10} {:>10} {:>10} {:>12} {:>12}",
        "scheme", "blk miss", "other", "reuses", "write stall", "OS cycles"
    );
    for scheme in [
        BlockOpScheme::Cached,
        BlockOpScheme::Pref,
        BlockOpScheme::Bypass,
        BlockOpScheme::ByPref,
        BlockOpScheme::Dma,
    ] {
        let cfg = MachineConfig::base().with_block_scheme(scheme);
        let stats = Machine::new(cfg, &trace)
            .expect("valid trace")
            .run()
            .expect("clean run");
        let t = stats.total();
        println!(
            "{:<12} {:>10} {:>10} {:>10} {:>12} {:>12}",
            scheme.label(),
            t.os_miss_blockop,
            t.os_miss_other,
            t.reuse_inside + t.reuse_outside,
            t.dwrite_cycles.os,
            t.accounted_cycles(),
        );
    }
    println!(
        "\nNote how Blk_Bypass turns chained-copy sources into reuse misses,\n\
         while Blk_Dma removes the block misses entirely (paper §4.1.3/§4.2)."
    );
}
