//! `repro` — regenerates every table and figure of the paper.
//!
//! Usage:
//!   repro [--scale S] [--jobs N] [--timings]
//!         [table1|table2|table3|table4|table5|
//!          fig1|fig2|fig3|fig4|fig5|fig6|fig7|headline|scorecard|all]
//!
//! With no experiment argument, everything is produced in paper order.
//! Independent (workload, system) cells run in parallel across `--jobs`
//! worker threads (default: one per hardware thread); each cell itself is
//! a deterministic single-threaded simulation, so output is
//! bitwise-identical for any job count. `repro all` also writes a
//! machine-readable `BENCH_repro.json` with per-cell timings.

use oscache_bench::gate;
use oscache_core::service::{self, peak_rss_mb, RunRequest, Server, ServiceConfig};
use oscache_core::supervise::{Journal, JournalError, JournalHeader};
use oscache_core::{
    render_experiment, CellFailure, Escalation, Experiment, FailureCause, FailureReport, Repro,
    RunPolicy, SupervisedWarmStats, System,
};
use oscache_memsys::faults::CellFault;
use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};

fn usage() -> ! {
    eprintln!(
        "usage: repro [--scale S] [--jobs N] [--timings] [--keep-going] [--retries N]\n             [--deadline-ms N] [--deadline-action flag|cancel] [--deadline-grace-ms N]\n             [--journal <path> [--resume]] [--inject-cell-panic SPEC]\n             [--mem-budget-mb N] [--inject-io seed[:class]]\n             [table1..table5 | fig1..fig7 | headline | scorecard | all]\n                                                 cells run across N workers (default: all\n                                                 hardware threads); output is bitwise-identical\n                                                 for any N. `all` writes BENCH_repro.json.\n                                                 --keep-going renders every experiment whose cells\n                                                 completed and exits 6 if any cell failed;\n                                                 --retries N grants each failing cell N retries;\n                                                 --deadline-ms N flags cells running longer;\n                                                 --deadline-action cancel also cooperatively kills\n                                                 them --deadline-grace-ms (default 200) past the\n                                                 deadline; --journal records each completed cell\n                                                 crash-safely and --resume replays completed cells\n                                                 from it (a torn trailing record left by a kill is\n                                                 dropped with a warning);\n                                                 --inject-cell-panic seed[:period[:attempts]]\n                                                 panics selected cells (testing the supervisor)\n                                                 --mem-budget-mb N arms the spill governor: sealed\n                                                 trace chunks spill to disk under pressure and the\n                                                 run answers overloaded (exit 7) over dying when\n                                                 the budget cannot be met; --inject-io injects\n                                                 seeded disk faults at the spill write path\n                                                 (classes: short-write, bit-flip, enospc)\n                repro serve [--socket P|--tcp A] [--queue-limit N]\n                                                 resident service: accepts newline-JSON requests\n                                                 from concurrent clients on a Unix socket (default\n                                                 repro.sock) or TCP address, dedupes work via the\n                                                 shared cache and journal, drains on SIGTERM;\n                                                 honors --scale/--jobs/--journal/--resume,\n                                                 --mem-budget-mb/--inject-io, and the supervision\n                                                 flags above\n                repro submit [--socket P|--tcp A] [--client NAME]\n                            [--request-deadline-ms N] [experiments...]\n                                                 submit experiments to a running serve daemon and\n                                                 print the streamed report (byte-identical to\n                                                 running the same experiments locally)\n                repro golden <dir>               write each experiment's output to <dir>/<name>.txt\n                                                 (the golden-file corpus under tests/golden/)\n                repro dump <workload> <path>     write a trace dump\n                repro replay <path> <system> [--inject <fault> [--seed N]]\n                                                 simulate a dumped trace (audited);\n                                                 faults: drop duplicate swap bitflip truncate blocklen\n                repro simulate <workload> <system> [--scale S] [--mem-budget-mb N]\n                            [--inject-io seed[:class]]\n                                                 build and run one cell, print counters and peak\n                                                 RSS — the CI memory-ceiling probe\n                repro conflicts <workload>       the paper's S6 conflict-pair analysis\n                repro classes <workload>         per-structure reference profile (S3)\n                repro csv <dir>                  write every experiment as CSV\n                repro perturb <workload>         the S2.2 instrumentation-perturbation study\n                repro bench [--check]            perf smoke over representative cells at reduced\n                                                 scale (plus a chunk-codec microcell and a jobs-4\n                                                 mini-matrix); without --check writes\n                                                 BENCH_smoke.json reference timings, with --check\n                                                 fails if any cell regressed more than 2x vs that\n                                                 reference\n       exit codes: 1 i/o, 2 usage/journal mismatch, 3 trace validation, 4 simulation invariant,\n                   5 perf regression, 6 partial (some cells failed under --keep-going, or a\n                   submitted request finished incomplete), 7 overloaded (admission queue full,\n                   or the memory budget could not be met), 8 service unavailable (daemon unreachable or shutting down)"
    );
    std::process::exit(2);
}

/// Exit code for I/O failures.
const EXIT_IO: i32 = 1;
/// Exit code for usage errors and incompatible/corrupt journals.
const EXIT_USAGE: i32 = 2;
/// Exit code for traces rejected by parsing/validation.
const EXIT_TRACE_INVALID: i32 = 3;
/// Exit code for invariant violations or runtime errors during simulation.
const EXIT_SIM_FAILED: i32 = 4;
/// Exit code for a partial run: some cells failed under `--keep-going`,
/// the completed experiments were still rendered. `submit` reuses it for
/// requests that finished incomplete (failed cells, deadline kills, or a
/// drain that left cells unstarted).
const EXIT_PARTIAL: i32 = 6;
/// Exit code for a request the service rejected `overloaded` (its bounded
/// admission queue was full; retry later).
const EXIT_OVERLOADED: i32 = 7;
/// Exit code for an unreachable service: connection failed, or the daemon
/// was shutting down and never started the request.
const EXIT_UNAVAILABLE: i32 = 8;

/// Trace scale of the `bench` perf smoke (fixed, so the committed
/// reference stays comparable across runs).
const SMOKE_SCALE: f64 = 0.2;
/// Scale of the smoke's streaming cell: 10x the smoke scale, double the
/// paper's full-size traces. Only viable because the chunked engine keeps
/// peak memory at O(chunks in flight) (DESIGN.md §16); a regression that
/// re-materializes whole traces shows up here first.
const SMOKE_SCALE_STREAMING: f64 = 2.0;
/// Where `bench` writes — and `bench --check` reads — reference timings.
const SMOKE_REF: &str = "BENCH_smoke.json";
/// Regression threshold: a tracked cell failing at more than this ratio
/// of its reference work time fails the smoke. Generous on purpose — the
/// gate exists to catch gross (algorithmic) regressions, not CI jitter.
const SMOKE_LIMIT: f64 = 2.0;
/// Regression threshold for peak RSS: tighter than the time limit
/// because memory is far less jittery than wall time, and the spill
/// cell's whole point is its memory ceiling.
const SMOKE_RSS_LIMIT: f64 = 1.5;
/// Scale of the smoke's spill cell: the paper's full-size traces at the
/// acceptance scale (DESIGN.md §18), run under [`SMOKE_SPILL_BUDGET_MB`]
/// so the governor must spill sealed chunks to disk to fit.
const SMOKE_SCALE_SPILL: f64 = 10.0;
/// The spill cell's memory budget — far under the 419 MB the ungoverned
/// streaming engine peaks at for this cell (measured ~179 MB peak RSS
/// governed), so staying in memory is not an option and the RSS gate
/// guards the spill machinery. The CI spill-oracle job runs the same
/// cell under `ulimit -v` at 256 MB, where the ungoverned engine dies.
const SMOKE_SPILL_BUDGET_MB: u64 = 64;

/// Reports a structured error on stderr and exits with `code`.
fn fail(class: &str, msg: &str, code: i32) -> ! {
    eprintln!("error: class={class} msg={msg:?}");
    std::process::exit(code);
}

/// The supervision options (DESIGN.md §13) shared by the experiment and
/// `golden` flows.
#[derive(Default)]
struct Supervision {
    keep_going: bool,
    journal_path: Option<String>,
    resume: bool,
    retries: u32,
    deadline_ms: Option<u64>,
    deadline_cancel: bool,
    deadline_grace_ms: Option<u64>,
    inject: Option<CellFault>,
    /// `--mem-budget-mb N`: arm the spill-under-pressure governor.
    mem_budget_mb: Option<u64>,
    /// `--inject-io seed[:class]`: deterministic disk faults at the spill
    /// write path.
    inject_io: Option<oscache_trace::IoFaultPlan>,
}

impl Supervision {
    /// The per-cell policy these options select.
    fn policy(&self) -> RunPolicy {
        RunPolicy {
            max_retries: self.retries,
            backoff_ms: if self.retries > 0 { 25 } else { 0 },
            soft_deadline_ms: self.deadline_ms,
            escalation: if self.deadline_cancel {
                Escalation::CancelAfterGrace {
                    grace_ms: self.deadline_grace_ms.unwrap_or(200),
                }
            } else {
                Escalation::FlagOnly
            },
            inject: self.inject,
        }
    }

    /// Opens (with `--resume`: resumes) the run journal, reporting a
    /// dropped torn tail as a structured warning and exiting with a
    /// structured error on an incompatible header (exit 2), a corrupt
    /// record (exit 2), or an I/O failure (exit 1). The one-shot and
    /// `serve` flows share it, so they recover identically.
    fn open_journal(&self, scale: f64) -> Option<Journal> {
        let path = std::path::Path::new(self.journal_path.as_ref()?);
        let opts = oscache_workloads::BuildOptions {
            scale,
            ..Default::default()
        };
        let header = JournalHeader::new(&opts);
        let opened = if self.resume {
            Journal::resume(path, header)
        } else {
            Journal::create(path, header)
        };
        let journal = match opened {
            Ok(j) => j,
            Err(e @ JournalError::Io(_)) => fail("io", &e.to_string(), EXIT_IO),
            Err(e) => fail("journal", &e.to_string(), EXIT_USAGE),
        };
        if let Some(s) = journal.salvaged() {
            eprintln!(
                "warning: class=journal-salvage path={} line={} dropped_bytes={} msg=\"dropped torn trailing record; resuming from the last intact record\"",
                path.display(),
                s.line,
                s.dropped_bytes
            );
        }
        if !journal.is_empty() {
            eprintln!(
                "journal: resuming from {} ({} completed cells)",
                path.display(),
                journal.len()
            );
        }
        Some(journal)
    }
}

/// Prints the supervision telemetry and per-failure structured lines to
/// stderr. Returns true when the run is partial (some cells failed).
fn report_supervision(sup: &SupervisedWarmStats, journal: Option<&Journal>) -> bool {
    for o in &sup.overruns {
        eprintln!(
            "warning: class=deadline-overrun cell={:?} attempt={} deadline_ms={} elapsed_ms={:.0} msg={:?}",
            o.key, o.attempt, o.deadline_ms, o.elapsed_ms, "exceeded the soft deadline"
        );
    }
    for e in &sup.journal_errors {
        eprintln!("warning: journal write failed: {e}");
    }
    if sup.retries > 0 {
        eprintln!("supervision: {} retry attempts granted", sup.retries);
    }
    if let Some(j) = journal {
        eprintln!(
            "journal: {} cells replayed, {} recorded at {}",
            sup.journal_hits,
            j.len(),
            j.path().display()
        );
    }
    for f in &sup.failures {
        eprintln!("error: class=cell-failure {}", FailureReport::from(f));
    }
    !sup.failures.is_empty()
}

/// The exit code a failed fail-fast run reports: 7 when every failure is
/// a memory-budget rejection (the governor answered *overloaded* — the
/// same taxonomy as the service's full admission queue), 3 when every
/// failure is a trace-validation rejection, 4 otherwise (invariants,
/// panics).
fn failure_exit(failures: &[CellFailure]) -> i32 {
    let all_overloaded = failures
        .iter()
        .all(|f| matches!(&f.cause, FailureCause::Sim(e) if e.is_overloaded()));
    if all_overloaded && !failures.is_empty() {
        return EXIT_OVERLOADED;
    }
    let all_trace = failures
        .iter()
        .all(|f| matches!(&f.cause, FailureCause::Sim(e) if e.is_trace_error()));
    if all_trace {
        EXIT_TRACE_INVALID
    } else {
        EXIT_SIM_FAILED
    }
}

/// Warms every cell `exps` need without retries, exiting through
/// [`failure_exit`] if any cell fails.
fn warm_fail_fast(r: &mut Repro, exps: &[Experiment]) -> SupervisedWarmStats {
    let warm = r.warm_supervised(exps, &RunPolicy::fail_fast(), None);
    if report_supervision(&warm, None) {
        fail(
            "cell-failure",
            &format!(
                "{} of {} cells failed",
                warm.failures.len(),
                warm.failures.len() + warm.cells.len()
            ),
            failure_exit(&warm.failures),
        );
    }
    warm
}

/// Arms the memory-budget governor on a driver per `--mem-budget-mb` /
/// `--inject-io`. A no-op without the flag.
fn arm_budget(r: &Repro, sup: &Supervision) {
    if let Some(mb) = sup.mem_budget_mb {
        r.set_mem_budget(mb, sup.inject_io);
    }
}

/// After a budgeted run: one structured `class=spill` stderr line with
/// what the governor actually did (bytes spilled, write time, salvages),
/// so CI and operators can grep for it. Silent when no budget was armed.
fn report_spill(r: &Repro, sup: &Supervision) {
    let Some(budget_mb) = sup.mem_budget_mb else {
        return;
    };
    eprintln!(
        "spill: class=spill budget_mb={} spilled_mb={:.1} peak_rss_mb={:.1}",
        budget_mb,
        r.cache().spilled_mb(),
        peak_rss_mb().unwrap_or(-1.0),
    );
}

/// The §2.2 perturbation study: instrument every basic block with an
/// escape load and show the measured metrics barely move.
fn perturb(workload: &str, scale: f64) {
    use oscache_workloads::{build_chunked, BuildOptions, Workload};
    let w = Workload::all()
        .into_iter()
        .find(|w| w.name().eq_ignore_ascii_case(workload))
        .unwrap_or_else(|| usage());
    let trace = build_chunked(
        w,
        BuildOptions {
            scale,
            ..Default::default()
        },
    );
    let inst = oscache_core::transform::TransformPipeline::new()
        .escapes()
        .run(&trace);
    let growth = inst.total_events() as f64 / trace.total_events() as f64 - 1.0;
    let base = oscache_core::run_system(&trace, System::Base);
    let with = oscache_core::run_system(&inst, System::Base);
    let m0 = oscache_core::WorkloadMetrics::from_stats(&base.stats);
    let m1 = oscache_core::WorkloadMetrics::from_stats(&with.stats);
    println!(
        "escape instrumentation of {} (+{:.1}% events; paper: +30.1% code size):",
        w.name(),
        100.0 * growth
    );
    println!("{:<40} {:>12} {:>14}", "metric", "original", "instrumented");
    for (name, a, b) in [
        ("OS time (%)", m0.os_time_pct, m1.os_time_pct),
        ("User time (%)", m0.user_time_pct, m1.user_time_pct),
        ("D-miss rate (%)", m0.dmiss_rate_pct, m1.dmiss_rate_pct),
        ("OS D-reads share (%)", m0.os_dreads_pct, m1.os_dreads_pct),
        (
            "OS D-misses share (%)",
            m0.os_dmisses_pct,
            m1.os_dmisses_pct,
        ),
    ] {
        println!("{name:<40} {a:>12.1} {b:>14.1}");
    }
    println!(
        "block operations: {} vs {} (must be identical)",
        base.stats.total().blk_ops,
        with.stats.total().blk_ops
    );
}

/// Writes one CSV per experiment into `dir` (plot-friendly output).
fn csv(dir: &str, scale: f64, jobs: usize) {
    use oscache_core::paperref as p;
    std::fs::create_dir_all(dir).expect("create csv dir");
    let mut r = Repro::with_jobs(scale, jobs);
    warm_fail_fast(
        &mut r,
        &[
            Experiment::Table1,
            Experiment::Table2,
            Experiment::Fig2,
            Experiment::Fig3,
            Experiment::Fig4,
            Experiment::Fig5,
            Experiment::Fig6,
            Experiment::Fig7,
        ],
    );
    let file = |name: &str| {
        std::io::BufWriter::new(
            std::fs::File::create(format!("{dir}/{name}.csv")).expect("create csv"),
        )
    };
    let wl = p::WORKLOADS.join(",");

    let t1 = r.table1();
    let mut f = file("table1");
    writeln!(f, "row,{wl}").unwrap();
    type MetricSel = fn(&oscache_core::WorkloadMetrics) -> f64;
    let rows: [(&str, MetricSel); 7] = [
        ("user_time_pct", |m| m.user_time_pct),
        ("idle_time_pct", |m| m.idle_time_pct),
        ("os_time_pct", |m| m.os_time_pct),
        ("os_dstall_pct", |m| m.os_dstall_pct),
        ("dmiss_rate_pct", |m| m.dmiss_rate_pct),
        ("os_dreads_pct", |m| m.os_dreads_pct),
        ("os_dmisses_pct", |m| m.os_dmisses_pct),
    ];
    for (name, sel) in rows {
        let cells: Vec<String> = t1.rows.iter().map(|m| format!("{:.2}", sel(m))).collect();
        writeln!(f, "{name},{}", cells.join(",")).unwrap();
    }

    let t2 = r.table2();
    let mut f = file("table2");
    writeln!(f, "row,{wl}").unwrap();
    for (name, sel) in [
        (
            "block_op_pct",
            (|m: &oscache_core::MissBreakdown| m.block_op_pct) as fn(&_) -> f64,
        ),
        ("coherence_pct", |m| m.coherence_pct),
        ("other_pct", |m| m.other_pct),
    ] {
        let cells: Vec<String> = t2.rows.iter().map(|m| format!("{:.2}", sel(m))).collect();
        writeln!(f, "{name},{}", cells.join(",")).unwrap();
    }

    for (name, fig) in [
        ("figure2", r.figure2()),
        ("figure4", r.figure4()),
        ("figure5", r.figure5()),
    ] {
        let mut f = file(name);
        writeln!(f, "system,{wl}").unwrap();
        for (label, cells) in &fig.rows {
            let vals: Vec<String> = cells
                .iter()
                .map(|c| format!("{:.4}", c.normalized))
                .collect();
            writeln!(f, "{label},{}", vals.join(",")).unwrap();
        }
    }

    let f3 = r.figure3();
    let mut f = file("figure3");
    writeln!(f, "system,{wl}").unwrap();
    for (i, sys) in f3.systems.iter().enumerate() {
        let vals: Vec<String> = (0..4)
            .map(|w| format!("{:.4}", f3.normalized(w, i)))
            .collect();
        writeln!(f, "{},{}", sys.label(), vals.join(",")).unwrap();
    }

    for (name, fig) in [("figure6", r.figure6()), ("figure7", r.figure7())] {
        let mut f = file(name);
        writeln!(f, "point,system,{wl}").unwrap();
        for (label, cells) in &fig.rows {
            for (si, sys) in fig.systems.iter().enumerate() {
                let vals: Vec<String> = cells.iter().map(|p| format!("{:.4}", p[si])).collect();
                writeln!(f, "{label},{sys},{}", vals.join(",")).unwrap();
            }
        }
    }
    println!("wrote CSVs for tables 1-2 and figures 2-7 into {dir}/");
}

fn classes(workload: &str, scale: f64) {
    use oscache_workloads::{build_chunked, BuildOptions, Workload};
    let w = Workload::all()
        .into_iter()
        .find(|w| w.name().eq_ignore_ascii_case(workload))
        .unwrap_or_else(|| usage());
    let trace = build_chunked(
        w,
        BuildOptions {
            scale,
            ..Default::default()
        },
    );
    let p = oscache_core::analysis::class_profile(&trace);
    let base = oscache_core::run_system(&trace, System::Base);
    let misses = base.stats.total().os_miss_by_class;
    let mut rows: Vec<_> = p.into_iter().collect();
    rows.sort_by_key(|(_, e)| std::cmp::Reverse(e.reads + e.writes));
    let total: u64 = rows.iter().map(|(_, e)| e.reads + e.writes).sum();
    println!(
        "reference profile of {} ({} data references):",
        w.name(),
        total
    );
    println!(
        "{:<16} {:>12} {:>12} {:>8} {:>12}",
        "class", "reads", "writes", "share", "OS misses"
    );
    for (c, e) in rows {
        println!(
            "{:<16} {:>12} {:>12} {:>7.1}% {:>12}",
            format!("{c:?}"),
            e.reads,
            e.writes,
            100.0 * (e.reads + e.writes) as f64 / total.max(1) as f64,
            misses.get(&c).copied().unwrap_or(0)
        );
    }
}

fn conflicts(workload: &str, scale: f64) {
    use oscache_core::analysis::{conflict_matrix, conflicts_are_diffuse};
    use oscache_workloads::{build_chunked, BuildOptions, Workload};
    let w = Workload::all()
        .into_iter()
        .find(|w| w.name().eq_ignore_ascii_case(workload))
        .unwrap_or_else(|| usage());
    let trace = build_chunked(
        w,
        BuildOptions {
            scale,
            ..Default::default()
        },
    );
    let r = oscache_core::run_system(&trace, System::Base);
    let m = conflict_matrix(&r.stats.total());
    let total: u64 = m.iter().map(|p| p.count).sum();
    println!(
        "conflict pairs on {} (kernel-structure L1D evictions):",
        w.name()
    );
    for p in m.iter().take(12) {
        println!(
            "  {:<14} evicted by {:<14} {:>8} ({:>4.1}%)",
            format!("{:?}", p.victim),
            format!("{:?}", p.evictor),
            p.count,
            100.0 * p.count as f64 / total.max(1) as f64
        );
    }
    println!(
        "diffuse (paper: 'random conflicts', no relocation warranted): {}",
        conflicts_are_diffuse(&m, 0.4)
    );
}

/// `repro simulate <workload> <system> [--scale S]`: builds and runs one
/// cell end to end and reports its counters plus the process peak RSS.
///
/// This is the memory-ceiling probe (DESIGN.md §16): CI runs it at
/// `--scale 10` under `ulimit -v`, where the streaming engine must
/// complete inside the ceiling, and governed by `--mem-budget-mb` inside
/// a tighter one that the ungoverned run cannot meet.
fn simulate(workload: &str, system: &str, scale: f64, sup_opts: &Supervision) {
    use oscache_workloads::Workload;
    let w = Workload::all()
        .into_iter()
        .find(|w| w.name().eq_ignore_ascii_case(workload))
        .unwrap_or_else(|| usage());
    let sys = System::all()
        .into_iter()
        .find(|s| s.label().eq_ignore_ascii_case(system))
        .unwrap_or_else(|| usage());
    let t0 = std::time::Instant::now();
    let mut r = Repro::new(scale);
    arm_budget(&r, sup_opts);
    let t = match r.try_run_spec(
        w,
        sys.spec(),
        oscache_core::Geometry::default(),
        sys.label(),
    ) {
        Ok(res) => res.stats.total(),
        Err(e) if e.is_overloaded() => fail("overloaded", &e.to_string(), EXIT_OVERLOADED),
        Err(e) if e.is_trace_error() => {
            fail("trace-validation", &e.to_string(), EXIT_TRACE_INVALID)
        }
        Err(e) => fail("simulation", &e.to_string(), EXIT_SIM_FAILED),
    };
    let wall = 1e3 * t0.elapsed().as_secs_f64();
    let events: u64 = r.cache().build_timings().iter().map(|b| b.events).sum();
    println!(
        "{} on {} at scale {scale}: {events} events, OS misses {} in {wall:.0} ms",
        sys.label(),
        w.name(),
        t.os_read_misses(),
    );
    report_spill(&r, sup_opts);
    println!("peak_rss_mb {:.1}", peak_rss_mb().unwrap_or(-1.0));
}

fn dump(workload: &str, path: &str, scale: f64) {
    use oscache_workloads::{build_chunked, BuildOptions, Workload};
    let w = Workload::all()
        .into_iter()
        .find(|w| w.name().eq_ignore_ascii_case(workload))
        .unwrap_or_else(|| usage());
    let trace = build_chunked(
        w,
        BuildOptions {
            scale,
            ..Default::default()
        },
    );
    let f = std::fs::File::create(path).expect("create dump file");
    oscache_trace::write_trace(&trace, std::io::BufWriter::new(f)).expect("write dump");
    println!("wrote {} ({} events)", path, trace.total_events());
}

fn replay(path: &str, system: &str, inject: Option<(oscache_memsys::faults::FaultKind, u64)>) {
    use oscache_memsys::AuditLevel;
    use oscache_trace::ReadTraceError;
    let sys = System::all()
        .into_iter()
        .find(|s| s.label().eq_ignore_ascii_case(system))
        .unwrap_or_else(|| usage());
    let f = match std::fs::File::open(path) {
        Ok(f) => f,
        Err(e) => fail("io", &format!("{path}: {e}"), EXIT_IO),
    };
    let mut trace = match oscache_trace::read_trace(std::io::BufReader::new(f)) {
        Ok(t) => t,
        Err(e @ ReadTraceError::Io(_)) => fail("io", &e.to_string(), EXIT_IO),
        Err(e) => fail("trace-validation", &e.to_string(), EXIT_TRACE_INVALID),
    };
    if let Some((kind, seed)) = inject {
        println!("injecting fault {} (seed {seed})", kind.label());
        trace = oscache_memsys::faults::inject(&trace, kind, seed);
        if let Err(e) = trace.validate() {
            fail("trace-validation", &e.to_string(), EXIT_TRACE_INVALID);
        }
    }
    // Replay with the full invariant audit enabled, so a fault that slips
    // past validation is either survived cleanly or reported as a typed
    // simulation error — never a panic.
    let r = match oscache_core::try_run_spec_audited(
        &trace,
        sys.spec(),
        oscache_core::Geometry::default(),
        AuditLevel::Strict,
    ) {
        Ok(r) => r,
        Err(e) if e.is_trace_error() => {
            fail("trace-validation", &e.to_string(), EXIT_TRACE_INVALID)
        }
        Err(e) => fail("simulation", &e.to_string(), EXIT_SIM_FAILED),
    };
    let t = r.stats.total();
    println!(
        "{} on {}: OS misses {} (block {} coherence {} other {}), OS time {}",
        sys.label(),
        trace.meta.workload,
        t.os_read_misses(),
        t.os_miss_blockop,
        t.os_miss_coherence.iter().sum::<u64>(),
        t.os_miss_other,
        oscache_core::OsTimeBreakdown::from_stats(&r.stats).total(),
    );
    if inject.is_some() {
        println!("replay completed with a clean invariant audit");
    }
}

fn main() {
    set_sigpipe(SIG_DFL);
    let mut scale = 1.0f64;
    let mut jobs = 0usize; // 0 = one worker per hardware thread
    let mut timings = false;
    let mut sup_opts = Supervision::default();
    let mut what: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--scale" => {
                scale = args
                    .next()
                    .unwrap_or_else(|| usage())
                    .parse()
                    .unwrap_or_else(|_| usage());
            }
            "--jobs" => {
                jobs = args
                    .next()
                    .unwrap_or_else(|| usage())
                    .parse()
                    .unwrap_or_else(|_| usage());
                if jobs == 0 {
                    usage();
                }
            }
            "--timings" => timings = true,
            "--keep-going" => sup_opts.keep_going = true,
            "--resume" => sup_opts.resume = true,
            "--journal" => {
                sup_opts.journal_path = Some(args.next().unwrap_or_else(|| usage()));
            }
            "--retries" => {
                sup_opts.retries = args
                    .next()
                    .unwrap_or_else(|| usage())
                    .parse()
                    .unwrap_or_else(|_| usage());
            }
            "--deadline-ms" => {
                sup_opts.deadline_ms = Some(
                    args.next()
                        .unwrap_or_else(|| usage())
                        .parse()
                        .unwrap_or_else(|_| usage()),
                );
            }
            "--deadline-action" => {
                match args.next().unwrap_or_else(|| usage()).as_str() {
                    "flag" => sup_opts.deadline_cancel = false,
                    "cancel" => sup_opts.deadline_cancel = true,
                    _ => usage(),
                };
            }
            "--deadline-grace-ms" => {
                sup_opts.deadline_grace_ms = Some(
                    args.next()
                        .unwrap_or_else(|| usage())
                        .parse()
                        .unwrap_or_else(|_| usage()),
                );
            }
            "--inject-cell-panic" => {
                let spec = args.next().unwrap_or_else(|| usage());
                sup_opts.inject = Some(CellFault::parse(&spec).unwrap_or_else(|| usage()));
            }
            "--mem-budget-mb" => {
                sup_opts.mem_budget_mb = Some(
                    args.next()
                        .unwrap_or_else(|| usage())
                        .parse()
                        .unwrap_or_else(|_| usage()),
                );
            }
            "--inject-io" => {
                let spec = args.next().unwrap_or_else(|| usage());
                sup_opts.inject_io = Some(
                    oscache_trace::IoFaultPlan::parse(&spec)
                        .unwrap_or_else(|e| fail("usage", &e, EXIT_USAGE)),
                );
            }
            "serve" => {
                let mut socket = "repro.sock".to_string();
                let mut tcp: Option<String> = None;
                let mut queue_limit = 256usize;
                while let Some(opt) = args.next() {
                    match opt.as_str() {
                        "--socket" => socket = args.next().unwrap_or_else(|| usage()),
                        "--tcp" => tcp = Some(args.next().unwrap_or_else(|| usage())),
                        "--queue-limit" => {
                            queue_limit = args
                                .next()
                                .unwrap_or_else(|| usage())
                                .parse()
                                .unwrap_or_else(|_| usage());
                        }
                        _ => usage(),
                    }
                }
                serve(scale, jobs, queue_limit, &sup_opts, &socket, tcp.as_deref());
                return;
            }
            "submit" => {
                let mut socket = "repro.sock".to_string();
                let mut tcp: Option<String> = None;
                let mut client = format!("pid-{}", std::process::id());
                let mut deadline_ms: Option<u64> = None;
                let mut names: Vec<String> = Vec::new();
                while let Some(opt) = args.next() {
                    match opt.as_str() {
                        "--socket" => socket = args.next().unwrap_or_else(|| usage()),
                        "--tcp" => tcp = Some(args.next().unwrap_or_else(|| usage())),
                        "--client" => client = args.next().unwrap_or_else(|| usage()),
                        "--request-deadline-ms" => {
                            deadline_ms = Some(
                                args.next()
                                    .unwrap_or_else(|| usage())
                                    .parse()
                                    .unwrap_or_else(|_| usage()),
                            );
                        }
                        other if !other.starts_with('-') => names.push(other.to_string()),
                        _ => usage(),
                    }
                }
                if names.is_empty() {
                    names.push("all".to_string());
                }
                set_sigpipe(SIG_IGN);
                let code = submit(&socket, tcp.as_deref(), &client, deadline_ms, &names);
                std::process::exit(code);
            }
            "golden" => {
                let dir = args.next().unwrap_or_else(|| usage());
                golden(&dir, scale, jobs, &sup_opts);
                return;
            }
            "dump" => {
                let w = args.next().unwrap_or_else(|| usage());
                let path = args.next().unwrap_or_else(|| usage());
                dump(&w, &path, scale);
                return;
            }
            "replay" => {
                let path = args.next().unwrap_or_else(|| usage());
                let sys = args.next().unwrap_or_else(|| usage());
                let mut inject = None;
                let mut seed = 0u64;
                while let Some(opt) = args.next() {
                    match opt.as_str() {
                        "--inject" => {
                            let kind = args.next().unwrap_or_else(|| usage());
                            inject = Some(
                                oscache_memsys::faults::FaultKind::parse(&kind)
                                    .unwrap_or_else(|| usage()),
                            );
                        }
                        "--seed" => {
                            seed = args
                                .next()
                                .unwrap_or_else(|| usage())
                                .parse()
                                .unwrap_or_else(|_| usage());
                        }
                        _ => usage(),
                    }
                }
                replay(&path, &sys, inject.map(|k| (k, seed)));
                return;
            }
            "simulate" => {
                let w = args.next().unwrap_or_else(|| usage());
                let sys = args.next().unwrap_or_else(|| usage());
                while let Some(opt) = args.next() {
                    match opt.as_str() {
                        "--scale" => {
                            scale = args
                                .next()
                                .unwrap_or_else(|| usage())
                                .parse()
                                .unwrap_or_else(|_| usage());
                        }
                        "--mem-budget-mb" => {
                            sup_opts.mem_budget_mb = Some(
                                args.next()
                                    .unwrap_or_else(|| usage())
                                    .parse()
                                    .unwrap_or_else(|_| usage()),
                            );
                        }
                        "--inject-io" => {
                            let spec = args.next().unwrap_or_else(|| usage());
                            sup_opts.inject_io = Some(
                                oscache_trace::IoFaultPlan::parse(&spec)
                                    .unwrap_or_else(|e| fail("usage", &e, EXIT_USAGE)),
                            );
                        }
                        _ => usage(),
                    }
                }
                simulate(&w, &sys, scale, &sup_opts);
                return;
            }
            "conflicts" => {
                let w = args.next().unwrap_or_else(|| usage());
                conflicts(&w, scale);
                return;
            }
            "classes" => {
                let w = args.next().unwrap_or_else(|| usage());
                classes(&w, scale);
                return;
            }
            "csv" => {
                let dir = args.next().unwrap_or_else(|| usage());
                csv(&dir, scale, jobs);
                return;
            }
            "bench" => {
                let mut check = false;
                for opt in args.by_ref() {
                    match opt.as_str() {
                        "--check" => check = true,
                        _ => usage(),
                    }
                }
                bench(check);
                return;
            }
            "perturb" => {
                let w = args.next().unwrap_or_else(|| usage());
                perturb(&w, scale);
                return;
            }
            "--help" | "-h" => usage(),
            other => what.push(other.to_string()),
        }
    }
    if what.is_empty() {
        what.push("all".to_string());
    }
    // Warm every cell the requested experiments need in one parallel
    // fan-out, then render from the (now hot) run cache in paper order.
    let mut exps: Vec<Experiment> = Vec::new();
    for w in &what {
        match w.as_str() {
            "all" => exps.extend(Experiment::all()),
            "bars" => exps.extend([Experiment::Fig2, Experiment::Fig3, Experiment::Fig5]),
            other => exps.push(Experiment::parse(other).unwrap_or_else(|| usage())),
        }
    }
    let mut r = Repro::with_jobs(scale, jobs);
    arm_budget(&r, &sup_opts);
    let journal = sup_opts.open_journal(scale);
    let sup = r.warm_supervised(&exps, &sup_opts.policy(), journal.as_ref());
    let partial = report_supervision(&sup, journal.as_ref());
    report_spill(&r, &sup_opts);
    if partial && !sup_opts.keep_going {
        fail(
            "cell-failure",
            &format!(
                "{} of {} cells failed (run with --keep-going for a partial report)",
                sup.failures.len(),
                sup.failures.len() + sup.cells.len()
            ),
            failure_exit(&sup.failures),
        );
    }
    for w in what.clone() {
        let all = w == "all";
        for e in Experiment::all() {
            if all || w == e.name() {
                if partial && !r.experiment_ready(e) {
                    eprintln!("skipping {}: not all of its cells completed", e.name());
                    continue;
                }
                print!("{}", render_experiment(&mut r, e));
            }
        }
        if w == "bars" {
            let ready = [Experiment::Fig2, Experiment::Fig3, Experiment::Fig5]
                .into_iter()
                .all(|e| r.experiment_ready(e));
            if partial && !ready {
                eprintln!("skipping bars: not all of its cells completed");
            } else {
                println!("{}", r.figure2().bars());
                println!("{}", r.figure3().bars());
                println!("{}", r.figure5().bars());
            }
        }
    }
    if timings {
        print_timings(&r, &sup);
    }
    if partial {
        // Partial runs never overwrite the benchmark record.
        fail(
            "partial",
            &format!(
                "{} cells failed; rendered the completed experiments",
                sup.failures.len()
            ),
            EXIT_PARTIAL,
        );
    }
    if what.iter().any(|w| w == "all") {
        write_bench_json("BENCH_repro.json", scale, &r, &sup);
    }
}

/// The golden-file experiments: everything except the scorecard (whose
/// verdict vector is pinned by its own tier-1 test).
fn golden_experiments() -> Vec<Experiment> {
    Experiment::all()
        .into_iter()
        .filter(|e| *e != Experiment::Scorecard)
        .collect()
}

/// Writes each experiment's exact output to `<dir>/<name>.txt` — the
/// corpus `tests/golden/` pins and `UPDATE_GOLDEN=1 cargo test` refreshes.
/// Runs under the same supervision options as the experiment flow, so a
/// journaled golden run can be killed and resumed (the CI crash/resume
/// smoke does exactly that).
fn golden(dir: &str, scale: f64, jobs: usize, sup_opts: &Supervision) {
    std::fs::create_dir_all(dir).expect("create golden dir");
    let exps = golden_experiments();
    let mut r = Repro::with_jobs(scale, jobs);
    arm_budget(&r, sup_opts);
    let journal = sup_opts.open_journal(scale);
    let warm = r.warm_supervised(&exps, &sup_opts.policy(), journal.as_ref());
    let partial = report_supervision(&warm, journal.as_ref());
    report_spill(&r, sup_opts);
    if partial && !sup_opts.keep_going {
        fail(
            "cell-failure",
            &format!(
                "{} of {} cells failed (run with --keep-going to write the completed experiments)",
                warm.failures.len(),
                warm.failures.len() + warm.cells.len()
            ),
            failure_exit(&warm.failures),
        );
    }
    let mut written = 0usize;
    for e in &exps {
        if partial && !r.experiment_ready(*e) {
            eprintln!("skipping {}: not all of its cells completed", e.name());
            continue;
        }
        let text = render_experiment(&mut r, *e);
        std::fs::write(format!("{dir}/{}.txt", e.name()), text).expect("write golden file");
        written += 1;
    }
    eprintln!(
        "wrote {written} golden outputs into {dir}/ ({} cells, {} workers, {:.0} ms)",
        warm.cells.len(),
        warm.jobs,
        warm.wall_ms
    );
    if partial {
        fail(
            "partial",
            &format!(
                "{} cells failed; wrote the completed experiments",
                warm.failures.len()
            ),
            EXIT_PARTIAL,
        );
    }
}

/// Prints the per-cell timing summary (`--timings`), with each cell's
/// wall time broken down into build / prepare / simulate phases.
fn print_timings(r: &Repro, warm: &SupervisedWarmStats) {
    println!("\nPer-cell timings ({} workers)", warm.jobs);
    println!("{}", "-".repeat(96));
    for b in r.cache().build_timings() {
        println!(
            "build {:<40} {:>9.1} ms {:>12} events",
            format!("{:?}", b.key.workload),
            b.ms,
            b.events
        );
    }
    println!(
        "{:<46} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>8} {:>8} {:>8} {:>8} {:>6} {:>10}",
        "",
        "total",
        "build",
        "prepare",
        "analyze",
        "profile",
        "rewrite",
        "sim",
        "decode",
        "spill",
        "sp MB",
        "pf hits",
        "order",
        "OS misses"
    );
    for t in r.timings() {
        println!(
            "cell  {:<40} {:>9.1} {:>9.1} {:>9.1} {:>9.1} {:>9.1} {:>9.1} {:>9.1} {:>8.1} {:>8.1} {:>8.1} {:>8} {:>6} {:>10}{}",
            compact_key(&t.key),
            t.ms,
            t.build_ms,
            t.prepare_ms,
            t.analyze_ms,
            t.profile_ms,
            t.rewrite_ms,
            t.sim_ms,
            t.decode_ms,
            t.spill_ms,
            t.spilled_mb,
            t.prefetch_hits,
            t.sched_order,
            t.os_misses,
            if t.journaled {
                "  (journal)"
            } else if t.cached {
                "  (cached)"
            } else {
                ""
            }
        );
    }
    let journaled = warm.cells.iter().filter(|c| c.journaled).count();
    println!(
        "total {:<40} {:>9.1} ms wall, {} cells ({journaled} from journal)",
        "",
        warm.wall_ms,
        warm.cells.len()
    );
    if let Some(mb) = peak_rss_mb() {
        println!("peak RSS {mb:.1} MB");
    }
}

/// The chunk-codec microcell: encodes a seeded synthetic event stream
/// into the chunked delta format and decodes every chunk back, returning
/// `(encode_ms, decode_ms, encode_mb_s, decode_mb_s)` over decoded-event
/// megabytes. The streaming replay pays exactly this decode cost at each
/// chunk swap-in, so a codec regression shows up here before it shows up
/// as wall time in the matrix.
fn codec_microcell() -> (f64, f64, f64, f64) {
    use oscache_trace::rng::{Rng, SmallRng};
    use oscache_trace::{Addr, ChunkedStream, DataClass, StreamBuilder, CHUNK_EVENTS};
    const EVENTS: usize = 1 << 19;
    let mut rng = SmallRng::seed_from_u64(0x5eed_c0de);
    let mut b = StreamBuilder::new();
    for _ in 0..EVENTS {
        let addr = Addr(0x0200_0000 + rng.gen_range(0u32..0x8000) * 8);
        if rng.gen_bool(0.3) {
            b.write(addr, DataClass::ProcTable);
        } else {
            b.read(addr, DataClass::RunQueue);
        }
    }
    let events: Vec<_> = b.finish().iter().collect();
    assert_eq!(events.len(), EVENTS);
    let mb = std::mem::size_of_val(events.as_slice()) as f64 / (1024.0 * 1024.0);
    let t0 = std::time::Instant::now();
    let stream = ChunkedStream::from_events(events, CHUNK_EVENTS);
    let encode_ms = t0.elapsed().as_secs_f64() * 1e3;
    let mut out = Vec::new();
    let mut decoded = 0usize;
    let t1 = std::time::Instant::now();
    for c in 0..stream.n_chunks() {
        stream.decode_chunk(c, &mut out);
        decoded += out.len();
    }
    let decode_ms = t1.elapsed().as_secs_f64() * 1e3;
    assert_eq!(decoded, EVENTS);
    let per_sec = |ms: f64| mb / (ms.max(1e-6) / 1e3);
    (encode_ms, decode_ms, per_sec(encode_ms), per_sec(decode_ms))
}

/// The `bench` perf smoke: four representative TRFD_4 cells — the cheap
/// baseline, the transform-heavy relocate+update cell, the full ladder
/// top (prefetch selection from its twin, the relocate+update cell just
/// run), and the ladder top again at a second line size, whose
/// preparation replays that geometry's twin and re-ranks against a warm
/// analysis cache — run serially at a
/// reduced scale with per-phase timings. Two structural cells ride along:
/// the chunk-codec microcell ([`codec_microcell`]) and a jobs-4
/// mini-matrix fan-out over Fig5, which times the LPT dispatch order end
/// to end.
///
/// Without `--check`, writes the measured timings to [`SMOKE_REF`] as the
/// committed reference. With `--check`, compares against that reference
/// and exits [`gate::EXIT_PERF_REGRESSION`] if any cell's work time (prepare +
/// simulate; trace build excluded as a one-off) exceeds [`SMOKE_LIMIT`]×
/// its reference.
fn bench(check: bool) {
    use oscache_workloads::Workload;
    let systems = [System::Base, System::BCohRelUp, System::BCPref];
    let mut r = Repro::with_jobs(SMOKE_SCALE, 1);
    println!("perf smoke: TRFD_4 at scale {SMOKE_SCALE}, 1 worker");
    let mut rss_after: Vec<Option<f64>> = Vec::new();
    for sys in systems {
        r.run(Workload::Trfd4, sys);
        rss_after.push(peak_rss_mb());
    }
    // The prepare-heavy cell: BCPref at a second line size repeats the
    // geometry-dependent half of preparation (its twin's replay + prefetch
    // selection) against a warm analysis cache — exactly the path the
    // analysis cache optimizes.
    let wide = oscache_core::Geometry {
        l1_line: 64,
        l2_line: 64,
        ..oscache_core::Geometry::default()
    };
    r.run_spec(Workload::Trfd4, System::BCPref.spec(), wide, "BCPref@64B");
    rss_after.push(peak_rss_mb());
    // The streaming memory cell: one Base run at SMOKE_SCALE_STREAMING
    // through its own driver (the scale is part of the trace key), with
    // the process peak RSS recorded alongside its work time.
    let mut r2 = Repro::with_jobs(SMOKE_SCALE_STREAMING, 1);
    r2.run_spec(
        Workload::Trfd4,
        System::Base.spec(),
        oscache_core::Geometry::default(),
        "Base@scale2",
    );
    let rss2 = peak_rss_mb();
    // The spill cell: full acceptance scale under a budget too tight to
    // stay in memory, so the governor must spill sealed chunks to disk.
    // Its peak RSS is the reading the (tighter) RSS gate guards — a
    // regression that re-materializes or stops spilling shows up here.
    let mut r10 = Repro::with_jobs(SMOKE_SCALE_SPILL, 1);
    r10.set_mem_budget(SMOKE_SPILL_BUDGET_MB, None);
    r10.run_spec(
        Workload::Trfd4,
        System::Base.spec(),
        oscache_core::Geometry::default(),
        "Base@spill10",
    );
    let rss10 = peak_rss_mb();
    println!(
        "spill cell: {:.1} MB spilled under the {SMOKE_SPILL_BUDGET_MB} MB budget",
        r10.cache().spilled_mb()
    );
    println!(
        "{:<24} {:>9} {:>9} {:>9} {:>9}",
        "cell", "total", "build", "prepare", "sim"
    );
    for t in r.timings().iter().chain(r2.timings()).chain(r10.timings()) {
        println!(
            "{:<24} {:>9.1} {:>9.1} {:>9.1} {:>9.1}",
            compact_key(&t.key),
            t.ms,
            t.build_ms,
            t.prepare_ms,
            t.sim_ms
        );
    }
    if let Some(mb) = rss2 {
        println!("peak RSS after streaming cell: {mb:.1} MB");
    }
    rss_after.push(rss2);
    rss_after.push(rss10);
    // The chunk-codec microcell: encode+decode throughput of the delta
    // codec on a seeded synthetic stream — the per-chunk cost the
    // decode-ahead helper hides from the replay loop.
    let (enc_ms, dec_ms, enc_mbs, dec_mbs) = codec_microcell();
    println!(
        "chunk codec: encode {enc_ms:.1} ms ({enc_mbs:.0} MB/s), decode {dec_ms:.1} ms ({dec_mbs:.0} MB/s)"
    );
    // The jobs-4 mini-matrix cell: a fresh fan-out over Fig5's 16 cells
    // (4 workloads x {Base, Blk_Dma, BCoh_RelUp, BCPref}) at 4 workers —
    // the wall clock the LPT dispatch order is meant to shrink.
    let mut r4 = Repro::with_jobs(SMOKE_SCALE, 4);
    let warm4 = warm_fail_fast(&mut r4, &[Experiment::Fig5]);
    println!(
        "jobs-4 mini-matrix (Fig5): {:.1} ms wall, {} cells",
        warm4.wall_ms,
        warm4.cells.len()
    );
    let mut cells: Vec<gate::GateCell> = r
        .timings()
        .iter()
        .chain(r2.timings())
        .chain(r10.timings())
        .zip(&rss_after)
        .map(|(t, rss)| gate::GateCell {
            key: compact_key(&t.key),
            work_ms: t.prepare_ms + t.sim_ms,
            peak_rss_mb: *rss,
        })
        .collect();
    cells.push(gate::GateCell {
        key: "codec/chunk".to_string(),
        work_ms: enc_ms + dec_ms,
        peak_rss_mb: None,
    });
    cells.push(gate::GateCell {
        key: "matrix/jobs4".to_string(),
        work_ms: warm4.wall_ms,
        peak_rss_mb: peak_rss_mb(),
    });
    if !check {
        if let Err(e) = std::fs::write(SMOKE_REF, gate::render_reference(SMOKE_SCALE, &cells)) {
            fail("io", &format!("{SMOKE_REF}: {e}"), EXIT_IO);
        }
        eprintln!("wrote {SMOKE_REF} (reference for `repro bench --check`)");
        return;
    }
    let reference = std::fs::read_to_string(SMOKE_REF).unwrap_or_else(|e| {
        fail(
            "io",
            &format!("{SMOKE_REF}: {e} (generate with `repro bench`)"),
            EXIT_IO,
        )
    });
    let report = gate::check(&cells, &reference, SMOKE_LIMIT, SMOKE_RSS_LIMIT, SMOKE_REF);
    for row in &report.rows {
        let (Some(ref_ms), Some(ratio)) = (row.ref_ms, row.ratio) else {
            eprintln!("warning: {} not in {SMOKE_REF}; skipping", row.key);
            continue;
        };
        let verdict = if row.regressed { "REGRESSED" } else { "ok" };
        println!(
            "check {:<24} work {:>8.1} ms vs reference {ref_ms:>8.1} ms ({ratio:>4.2}x) {verdict}",
            row.key, row.work_ms
        );
        if let (Some(mb), Some(ref_mb), Some(rss_ratio)) =
            (row.rss_mb, row.ref_rss_mb, row.rss_ratio)
        {
            let verdict = if row.rss_regressed { "REGRESSED" } else { "ok" };
            println!(
                "check {:<24} rss  {:>8.1} MB vs reference {ref_mb:>8.1} MB ({rss_ratio:>4.2}x) {verdict}",
                row.key, mb
            );
        }
    }
    if report.failed() {
        eprintln!("{}", report.stderr_line());
        std::process::exit(report.exit_code());
    }
    println!(
        "perf smoke passed: no tracked cell regressed more than {SMOKE_LIMIT}x \
         (rss {SMOKE_RSS_LIMIT}x)"
    );
}

/// Shortens a run key for display: the full geometry debug suffix is only
/// interesting when it differs from the default.
fn compact_key(key: &str) -> String {
    let mut parts = key.splitn(3, '/');
    let w = parts.next().unwrap_or("");
    let tag = parts.next().unwrap_or("");
    format!("{w}/{tag}")
}

/// Emits the machine-readable per-run benchmark record tracking the repro
/// pipeline's performance trajectory.
fn write_bench_json(path: &str, scale: f64, r: &Repro, warm: &SupervisedWarmStats) {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str(&format!("  \"scale\": {scale},\n"));
    s.push_str(&format!("  \"jobs\": {},\n", warm.jobs));
    s.push_str(&format!("  \"wall_ms\": {:.1},\n", warm.wall_ms));
    if let Some(mb) = peak_rss_mb() {
        s.push_str(&format!("  \"peak_rss_mb\": {mb:.1},\n"));
    }
    s.push_str("  \"trace_builds\": [\n");
    let builds = r.cache().build_timings();
    for (i, b) in builds.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"workload\": \"{:?}\", \"ms\": {:.1}, \"events\": {}}}{}\n",
            b.key.workload,
            b.ms,
            b.events,
            if i + 1 < builds.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n  \"cells\": [\n");
    let cells = r.timings();
    for (i, t) in cells.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"key\": \"{}\", \"ms\": {:.1}, \"build_ms\": {:.1}, \"prepare_ms\": {:.1}, \"analyze_ms\": {:.1}, \"profile_ms\": {:.1}, \"rewrite_ms\": {:.1}, \"cached\": {}, \"sim_ms\": {:.1}, \"decode_ms\": {:.1}, \"spill_ms\": {:.1}, \"spilled_mb\": {:.1}, \"prefetch_hits\": {}, \"sched_order\": {}, \"os_misses\": {}}}{}\n",
            compact_key(&t.key),
            t.ms,
            t.build_ms,
            t.prepare_ms,
            t.analyze_ms,
            t.profile_ms,
            t.rewrite_ms,
            t.cached,
            t.sim_ms,
            t.decode_ms,
            t.spill_ms,
            t.spilled_mb,
            t.prefetch_hits,
            t.sched_order,
            t.os_misses,
            if i + 1 < cells.len() { "," } else { "" }
        ));
    }
    s.push_str("  ]\n}\n");
    if let Err(e) = std::fs::write(path, s) {
        eprintln!("warning: could not write {path}: {e}");
    } else {
        eprintln!("wrote {path}");
    }
}

// ---------------------------------------------------------------------------
// The resident service: `repro serve` and `repro submit`
// ---------------------------------------------------------------------------

/// Set by SIGTERM/SIGINT; the serve loop watches it and drains.
static STOP: AtomicBool = AtomicBool::new(false);

extern "C" fn on_signal(_sig: i32) {
    // An atomic store is async-signal-safe; everything else (draining,
    // journaling, replying) happens on the normal threads that observe it.
    STOP.store(true, Ordering::SeqCst);
}

extern "C" {
    /// libc `signal(2)` — already linked by std, so installing a handler
    /// needs no new dependency. `handler` is a `sighandler_t`: a function
    /// address, [`SIG_DFL`] or [`SIG_IGN`].
    fn signal(signum: i32, handler: usize) -> usize;
}

/// `SIGINT` / `SIGPIPE` / `SIGTERM` on every platform this repo targets.
const SIGINT: i32 = 2;
const SIGPIPE: i32 = 13;
const SIGTERM: i32 = 15;
/// The default and ignore dispositions of `signal(2)`.
const SIG_DFL: usize = 0;
const SIG_IGN: usize = 1;

/// Sets the `SIGPIPE` disposition. The Rust runtime ignores `SIGPIPE`,
/// which turns a closed stdout (`repro ... | head -1`) into a panic in
/// `println!`; the one-shot commands restore the default so a closed pipe
/// ends the process quietly, as it does for any other filter. The socket
/// commands (`serve`, `submit`) ignore it again, so a vanished peer is an
/// `EPIPE` error on that connection rather than the end of the process.
fn set_sigpipe(disposition: usize) {
    // SAFETY: `signal` is the libc function declared above; SIG_DFL and
    // SIG_IGN are valid dispositions for SIGPIPE.
    unsafe {
        signal(SIGPIPE, disposition);
    }
}

/// Runs the resident experiment service until SIGTERM/SIGINT or a
/// `shutdown` op, then drains in-flight cells (journaling them) and
/// answers queued requests `shutting-down` before exiting.
fn serve(
    scale: f64,
    jobs: usize,
    queue_limit: usize,
    sup_opts: &Supervision,
    socket: &str,
    tcp: Option<&str>,
) {
    set_sigpipe(SIG_IGN);
    let handler = on_signal as extern "C" fn(i32) as usize;
    // SAFETY: `handler` is the address of `on_signal`, an `extern "C"`
    // function that only performs an async-signal-safe atomic store.
    unsafe {
        signal(SIGTERM, handler);
        signal(SIGINT, handler);
    }
    STOP.store(false, Ordering::SeqCst);
    let journal = sup_opts.open_journal(scale);
    let journaled = journal.is_some();
    let server = Server::start(
        ServiceConfig {
            scale,
            jobs,
            queue_limit,
            policy: sup_opts.policy(),
            mem_budget_mb: sup_opts.mem_budget_mb,
            fault_plan: sup_opts.inject_io,
        },
        journal,
    );
    match tcp {
        Some(addr) => eprintln!(
            "serve: listening on tcp {addr} (scale {scale}, queue limit {queue_limit} cells{})",
            if journaled { ", journaled" } else { "" }
        ),
        None => eprintln!(
            "serve: listening on unix socket {socket} (scale {scale}, queue limit {queue_limit} cells{})",
            if journaled { ", journaled" } else { "" }
        ),
    }
    let served = match tcp {
        Some(addr) => service::serve_tcp(&server, addr, &STOP),
        None => service::serve_unix(&server, std::path::Path::new(socket), &STOP),
    };
    server.stop();
    for e in server.take_journal_errors() {
        eprintln!("warning: journal write failed: {e}");
    }
    let st = server.stats();
    eprintln!(
        "serve: drained; {} requests finished ({} rejected overloaded, {} rejected shutting-down), {} cells completed ({} journal replays), {} trace builds, {} deadline overruns",
        st.finished,
        st.rejected_overloaded,
        st.rejected_shutdown,
        st.cells_completed,
        st.journal_replays,
        st.trace_builds,
        st.overruns
    );
    if let Err(e) = served {
        fail("io", &e.to_string(), EXIT_IO);
    }
}

/// Submits one request to a running daemon, streams progress to stderr,
/// prints the final report to stdout (byte-identical to a local run of
/// the same experiments), and returns the process exit code.
fn submit(
    socket: &str,
    tcp: Option<&str>,
    client: &str,
    deadline_ms: Option<u64>,
    names: &[String],
) -> i32 {
    let mut experiments: Vec<Experiment> = Vec::new();
    for name in names {
        if name == "all" {
            experiments.extend(Experiment::all());
        } else {
            experiments.push(Experiment::parse(name).unwrap_or_else(|| usage()));
        }
    }
    let req = RunRequest {
        client: client.to_string(),
        experiments,
        deadline_ms,
    };
    match tcp {
        Some(addr) => match std::net::TcpStream::connect(addr) {
            Ok(stream) => submit_over(stream, &req),
            Err(e) => {
                let msg = format!("cannot reach daemon at tcp {addr}: {e}");
                eprintln!("error: class=service msg={msg:?}");
                EXIT_UNAVAILABLE
            }
        },
        None => match std::os::unix::net::UnixStream::connect(socket) {
            Ok(stream) => submit_over(stream, &req),
            Err(e) => {
                let msg = format!("cannot reach daemon at {socket}: {e}");
                eprintln!("error: class=service msg={msg:?}");
                EXIT_UNAVAILABLE
            }
        },
    }
}

/// The submit wire loop, generic over the transport.
fn submit_over<S: std::io::Read + std::io::Write>(mut stream: S, req: &RunRequest) -> i32 {
    use std::io::BufRead;
    if let Err(e) = writeln!(stream, "{}", service::run_request_line(req)) {
        fail("io", &e.to_string(), EXIT_IO);
    }
    let _ = stream.flush();
    let mut reader = std::io::BufReader::new(stream);
    let mut line = String::new();
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) => fail(
                "service",
                "connection closed before the final reply",
                EXIT_IO,
            ),
            Ok(_) => {}
            Err(e) => fail("io", &e.to_string(), EXIT_IO),
        }
        if line.trim().is_empty() {
            continue;
        }
        let reply = match service::parse_reply(line.trim_end()) {
            Ok(r) => r,
            Err(msg) => fail("service", &format!("malformed reply: {msg}"), EXIT_IO),
        };
        match reply {
            service::Reply::Accepted { id, total } => {
                eprintln!("service: request {id} accepted ({total} cells)");
            }
            service::Reply::Cell(p) => {
                eprintln!(
                    "service: cell {}/{} {} {}{}",
                    p.index + 1,
                    p.total,
                    p.key,
                    if p.ok { "ok" } else { "failed" },
                    if p.journaled { " (journal)" } else { "" }
                );
            }
            service::Reply::Rejected { status } => {
                let msg = format!("request rejected: {status}");
                eprintln!("error: class=service msg={msg:?}");
                return if status == "overloaded" {
                    EXIT_OVERLOADED
                } else {
                    EXIT_UNAVAILABLE
                };
            }
            service::Reply::Error(msg) => {
                fail("service", &format!("request rejected: {msg}"), EXIT_USAGE)
            }
            service::Reply::Stats(_) => fail("service", "unexpected stats reply", EXIT_IO),
            service::Reply::Done(rep) => {
                print!("{}", rep.report);
                let _ = std::io::stdout().flush();
                for s in &rep.skipped {
                    eprintln!("skipping {s}: not all of its cells completed");
                }
                for f in &rep.failures {
                    eprintln!("error: class=cell-failure {f}");
                }
                if rep.journal_hits > 0 {
                    eprintln!(
                        "service: {} of {} cells replayed from the daemon's journal",
                        rep.journal_hits, rep.total
                    );
                }
                if rep.shutdown {
                    eprintln!(
                        "error: class=service msg={:?}",
                        "daemon was shutting down; request never started"
                    );
                    return EXIT_UNAVAILABLE;
                }
                if rep.deadline_exceeded {
                    eprintln!("error: class=service msg={:?}", "request deadline exceeded");
                }
                return if rep.complete() { 0 } else { EXIT_PARTIAL };
            }
        }
    }
}
