//! Geometry exploration in the style of the paper's Figures 6 and 7:
//! sweeps the primary-data-cache size and line size and reports how
//! `Base`, `Blk_Dma`, and `BCPref` respond.
//!
//! ```text
//! cargo run --release --example cache_sweep [workload]
//! ```

use oscache::core::{run_spec, Geometry, OsTimeBreakdown, System};
use oscache::workloads::{build_chunked, BuildOptions, Workload};

fn main() {
    let which = std::env::args().nth(1).unwrap_or_else(|| "Shell".into());
    let workload = Workload::all()
        .into_iter()
        .find(|w| w.name().eq_ignore_ascii_case(&which))
        .unwrap_or(Workload::Shell);
    println!("building {workload} ...");
    let trace = build_chunked(
        workload,
        BuildOptions {
            scale: 0.15,
            ..Default::default()
        },
    );
    let systems = [System::Base, System::BlkDma, System::BCPref];

    println!("\nL1D size sweep (16-B lines), normalized OS time vs Base@size:");
    println!(
        "{:<10} {:>10} {:>10} {:>10}",
        "size", "Base", "Blk_Dma", "BCPref"
    );
    for kb in [16u32, 32, 64] {
        let geom = Geometry {
            l1d_size: kb * 1024,
            ..Geometry::default()
        };
        let times: Vec<u64> = systems
            .iter()
            .map(|s| OsTimeBreakdown::from_stats(&run_spec(&trace, s.spec(), geom).stats).total())
            .collect();
        println!(
            "{:<10} {:>10.2} {:>10.2} {:>10.2}",
            format!("{kb} KB"),
            1.0,
            times[1] as f64 / times[0] as f64,
            times[2] as f64 / times[0] as f64
        );
    }

    println!("\nL1 line-size sweep (32-KB cache, 64-B L2 lines):");
    println!(
        "{:<10} {:>10} {:>10} {:>10}",
        "line", "Base", "Blk_Dma", "BCPref"
    );
    for line in [16u32, 32, 64] {
        let geom = Geometry {
            l1_line: line,
            l2_line: 64,
            ..Geometry::default()
        };
        let times: Vec<u64> = systems
            .iter()
            .map(|s| OsTimeBreakdown::from_stats(&run_spec(&trace, s.spec(), geom).stats).total())
            .collect();
        println!(
            "{:<10} {:>10.2} {:>10.2} {:>10.2}",
            format!("{line} B"),
            1.0,
            times[1] as f64 / times[0] as f64,
            times[2] as f64 / times[0] as f64
        );
    }
    println!(
        "\nPaper (Figures 6-7): Blk_Dma always outperforms Base and BCPref\n\
         always outperforms Blk_Dma, across every geometry."
    );
}
