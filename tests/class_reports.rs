//! The two per-structure reports of the `repro` CLI, pinned byte for byte:
//! `repro --scale 0.05 conflicts TRFD_4` (the §6 conflict-pair analysis)
//! and `repro --scale 0.05 classes Shell` (the §2.2 reference profile with
//! its per-class OS-miss column).
//!
//! The test recomputes both reports through the library and compares them
//! with the files under `tests/class_reports/`. CI also diffs the CLI's
//! own output against the same files. The files live outside
//! `tests/golden/`, which must hold exactly what `repro golden` writes.

use oscache::core::analysis::{class_profile, conflict_matrix, conflicts_are_diffuse};
use oscache::core::{run_system, System};
use oscache::workloads::{build_chunked, BuildOptions, Workload};
use std::fmt::Write as _;
use std::path::PathBuf;

const SCALE: f64 = 0.05;

fn pinned(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/class_reports")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn trace(w: Workload) -> oscache::trace::ChunkedTrace {
    build_chunked(
        w,
        BuildOptions {
            scale: SCALE,
            ..Default::default()
        },
    )
}

#[test]
fn conflict_pair_report_matches_the_pinned_file() {
    let w = Workload::Trfd4;
    let r = run_system(&trace(w), System::Base);
    let m = conflict_matrix(&r.stats.total());
    let total: u64 = m.iter().map(|p| p.count).sum();
    let mut out = String::new();
    writeln!(
        out,
        "conflict pairs on {} (kernel-structure L1D evictions):",
        w.name()
    )
    .unwrap();
    for p in m.iter().take(12) {
        writeln!(
            out,
            "  {:<14} evicted by {:<14} {:>8} ({:>4.1}%)",
            p.victim.name(),
            p.evictor.name(),
            p.count,
            100.0 * p.count as f64 / total.max(1) as f64
        )
        .unwrap();
    }
    writeln!(
        out,
        "diffuse (paper: 'random conflicts', no relocation warranted): {}",
        conflicts_are_diffuse(&m, 0.4)
    )
    .unwrap();
    assert_eq!(out, pinned("conflicts_TRFD_4.txt"));
}

#[test]
fn class_miss_report_matches_the_pinned_file() {
    let w = Workload::Shell;
    let t = trace(w);
    let misses = run_system(&t, System::Base).stats.total().os_miss_by_class;
    let mut rows: Vec<_> = class_profile(&t).into_iter().collect();
    rows.sort_by_key(|&(c, e)| (std::cmp::Reverse(e.reads + e.writes), c));
    let total: u64 = rows.iter().map(|(_, e)| e.reads + e.writes).sum();
    let mut out = String::new();
    writeln!(
        out,
        "reference profile of {} ({total} data references):",
        w.name()
    )
    .unwrap();
    writeln!(
        out,
        "{:<16} {:>12} {:>12} {:>8} {:>12}",
        "class", "reads", "writes", "share", "OS misses"
    )
    .unwrap();
    for (c, e) in rows {
        writeln!(
            out,
            "{:<16} {:>12} {:>12} {:>7.1}% {:>12}",
            c.name(),
            e.reads,
            e.writes,
            100.0 * (e.reads + e.writes) as f64 / total.max(1) as f64,
            misses[c as usize]
        )
        .unwrap();
    }
    assert_eq!(out, pinned("classes_Shell.txt"));
}
