//! Quickstart: build one workload, run the paper's system ladder on it,
//! and print the headline comparison.
//!
//! ```text
//! cargo run --release --example quickstart [scale]
//! ```

use oscache::core::{run_system, OsTimeBreakdown, RunResult, System, WorkloadMetrics};
use oscache::workloads::{build_chunked, BuildOptions, Workload};

fn main() {
    let scale: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.2);

    println!("building the TRFD_4 workload (scale {scale}) ...");
    let trace = build_chunked(
        Workload::Trfd4,
        BuildOptions {
            scale,
            ..Default::default()
        },
    );
    println!(
        "  {} ({} cpus, {} events)",
        trace.meta.workload,
        trace.n_cpus(),
        trace.total_events()
    );

    println!("\nsimulating the paper's system ladder:");
    println!(
        "{:<12} {:>12} {:>14} {:>12}",
        "system", "OS misses", "OS time (cyc)", "vs Base"
    );
    let mut base: Option<RunResult> = None;
    for sys in System::all() {
        let r = run_system(&trace, sys);
        let misses = r.stats.total().os_read_misses();
        let time = OsTimeBreakdown::from_stats(&r.stats).total();
        let rel = base
            .as_ref()
            .map(|b| time as f64 / OsTimeBreakdown::from_stats(&b.stats).total() as f64)
            .unwrap_or(1.0);
        println!("{:<12} {misses:>12} {time:>14} {rel:>11.2}x", sys.label());
        if sys == System::Base {
            // Also show the Table 1 characteristics of the baseline run.
            let m = WorkloadMetrics::from_stats(&r.stats);
            println!(
                "             (user {:.0}% / idle {:.0}% / OS {:.0}% of time; \
                 D-miss rate {:.1}%)",
                m.user_time_pct, m.idle_time_pct, m.os_time_pct, m.dmiss_rate_pct
            );
            base = Some(r);
        }
    }

    let b = base.expect("base ran");
    let best = run_system(&trace, System::BCPref);
    let removed =
        1.0 - best.stats.total().os_read_misses() as f64 / b.stats.total().os_read_misses() as f64;
    println!(
        "\nBCPref eliminates or hides {:.0}% of OS data misses (paper: ~75% \
         across the four workloads).",
        100.0 * removed
    );
}
