//! Experiment driver: builds workload traces, runs systems (with caching),
//! and produces every table and figure of the paper.

use crate::config::{Geometry, System, SystemSpec};
use crate::metrics::{
    BlockOpOverhead, CoherenceBreakdown, MissBreakdown, OsTimeBreakdown, WorkloadMetrics,
};
use crate::paperref;
use crate::runner::{
    run_cell, run_key, run_plan_supervised, Cell, CellOutcome, Experiment, RequestPlan, TraceCache,
};
use crate::sim::RunResult;
use crate::supervise::{CellFailure, Journal, Overrun, RunPolicy};
use oscache_workloads::{BuildOptions, Workload};
use std::collections::HashMap;
use std::sync::Arc;

/// Builds traces and caches simulation runs for the reproduction.
///
/// Simulation cells run through [`crate::runner`]: a shared [`TraceCache`]
/// builds each calibrated trace once, and [`Repro::warm_supervised`] fans
/// independent cells out over worker threads. Results are
/// bitwise-identical regardless of worker count — each cell is a
/// deterministic single-threaded run, and parallelism only schedules whole
/// cells.
///
/// # Examples
///
/// ```
/// use oscache_core::Repro;
///
/// let mut repro = Repro::new(0.05); // reduced trace scale
/// let table2 = repro.table2();
/// let shares = table2.rows[0];
/// let sum = shares.block_op_pct + shares.coherence_pct + shares.other_pct;
/// assert!((sum - 100.0).abs() < 0.01);
/// ```
pub struct Repro {
    /// Trace scale (1.0 = full size; smaller for quick runs).
    pub scale: f64,
    /// Workload seed.
    pub seed: u64,
    jobs: usize,
    cache: Arc<TraceCache>,
    runs: HashMap<String, RunResult>,
    timings: Vec<CellTiming>,
}

/// Wall-clock cost of one simulated cell (for `--timings` and
/// `BENCH_repro.json`).
#[derive(Clone, Debug)]
pub struct CellTiming {
    /// The cell's run-cache key (`workload/tag/geometry`).
    pub key: String,
    /// Milliseconds spent simulating the cell.
    pub ms: f64,
    /// Milliseconds fetching/building the base trace (first cell per
    /// workload pays the build; the rest hit the cache).
    pub build_ms: f64,
    /// Milliseconds in the software passes (`prepare_cell`).
    pub prepare_ms: f64,
    /// Milliseconds of `prepare_ms` in the geometry-independent analysis
    /// (zero when another cell already analyzed this working trace).
    pub analyze_ms: f64,
    /// Milliseconds of `prepare_ms` in the hot-spot profiling replay.
    pub profile_ms: f64,
    /// Milliseconds of `prepare_ms` in the hot-spot prefetch selection
    /// (see [`PrepPhases::rewrite_ms`](crate::PrepPhases::rewrite_ms)).
    pub rewrite_ms: f64,
    /// Whether the fully-prepared trace came straight from the cache
    /// (another cell with an identical fingerprint prepared it first).
    pub cached: bool,
    /// Milliseconds in the final machine run.
    pub sim_ms: f64,
    /// Milliseconds of `sim_ms` spent decoding chunks synchronously (zero
    /// when the decode-ahead helper absorbed every decode, or for flat
    /// replays, which have no chunk decodes at all).
    pub decode_ms: f64,
    /// Chunk swap-ins served by the decode-ahead helper's ready slot.
    pub prefetch_hits: u64,
    /// MiB of sealed chunks this cell's phases spilled to disk under the
    /// memory-budget governor (zero without `--mem-budget-mb`; attributed
    /// to whichever cell built the trace, like `build_ms`).
    pub spilled_mb: f64,
    /// Milliseconds spent writing those spill frames.
    pub spill_ms: f64,
    /// Position at which the scheduler dispatched this cell (0 = first).
    pub sched_order: usize,
    /// OS read misses the cell observed (a cheap cross-run sanity metric).
    pub os_misses: u64,
    /// Whether the result was replayed from a run journal (`--resume`)
    /// instead of simulated.
    pub journaled: bool,
}

/// What a [`Repro::warm_supervised`] fan-out did: worker count, wall
/// clock, and the cells it ran (already-cached cells are skipped), plus
/// everything the supervision layer observed (DESIGN.md §13).
#[derive(Debug)]
pub struct SupervisedWarmStats {
    /// Worker threads used.
    pub jobs: usize,
    /// Wall-clock milliseconds for the fan-out.
    pub wall_ms: f64,
    /// Per-cell timings of the cells that completed, in cell order.
    pub cells: Vec<CellTiming>,
    /// Cells whose retries were exhausted, in cell order. Empty means the
    /// run is complete and every table/figure can render.
    pub failures: Vec<CellFailure>,
    /// Soft-deadline overruns the watchdog flagged (advisory).
    pub overruns: Vec<Overrun>,
    /// Retry attempts granted across all cells.
    pub retries: u64,
    /// Cells replayed from the run journal instead of simulated.
    pub journal_hits: usize,
    /// Journal writes that failed (non-fatal; those cells will re-simulate
    /// on a later resume).
    pub journal_errors: Vec<String>,
}

impl Repro {
    /// Creates a serial driver at the given trace scale.
    pub fn new(scale: f64) -> Self {
        Repro::with_jobs(scale, 1)
    }

    /// Creates a driver that fans [`Repro::warm_supervised`] out over `jobs` worker
    /// threads (`0` = one per hardware thread).
    pub fn with_jobs(scale: f64, jobs: usize) -> Self {
        Repro::with_cache(scale, jobs, Arc::new(TraceCache::new()))
    }

    /// Creates a driver sharing an existing trace cache (several `Repro`s
    /// — e.g. one per benchmark — can then reuse the same built traces).
    pub fn with_cache(scale: f64, jobs: usize, cache: Arc<TraceCache>) -> Self {
        Repro {
            scale,
            seed: BuildOptions::default().seed,
            jobs,
            cache,
            runs: HashMap::new(),
            timings: Vec::new(),
        }
    }

    /// The build options every trace of this driver is generated with.
    pub fn build_options(&self) -> BuildOptions {
        BuildOptions {
            scale: self.scale,
            seed: self.seed,
            ..Default::default()
        }
    }

    /// The shared trace cache.
    pub fn cache(&self) -> &Arc<TraceCache> {
        &self.cache
    }

    /// Arms the spill-under-pressure governor on this driver's cache
    /// (`--mem-budget-mb`): see [`TraceCache::set_spill`]. Must be called
    /// before the first trace builds — traces already cached stay
    /// resident and ungoverned.
    pub fn set_mem_budget(&self, budget_mb: u64, faults: Option<oscache_trace::IoFaultPlan>) {
        self.cache.set_spill(budget_mb, faults);
    }

    /// Per-cell timings of every simulation this driver ran so far.
    pub fn timings(&self) -> &[CellTiming] {
        &self.timings
    }

    /// Runs every cell the given experiments need, in parallel across
    /// `jobs` workers, so the subsequent table/figure calls are pure cache
    /// hits. Cells already simulated are not rerun. Under the
    /// [`RunPolicy`] (DESIGN.md §13), failing cells cost their own slot
    /// instead of panicking the driver, retries and journal replay/record
    /// apply per the policy, and the returned stats say exactly which
    /// cells did not complete — the caller decides whether that is fatal
    /// (`repro` without `--keep-going`) or a partial report (exit code 6).
    pub fn warm_supervised(
        &mut self,
        experiments: &[Experiment],
        policy: &RunPolicy,
        journal: Option<&Journal>,
    ) -> SupervisedWarmStats {
        let plan = self.plan(experiments);
        let report = run_plan_supervised(
            &self.cache,
            self.build_options(),
            &plan,
            self.jobs,
            policy,
            journal,
        );
        let mut stats = SupervisedWarmStats {
            jobs: report.jobs,
            wall_ms: report.wall_ms,
            cells: Vec::new(),
            failures: Vec::new(),
            overruns: report.overruns,
            retries: report.retries,
            journal_hits: report.journal_hits,
            journal_errors: report.journal_errors,
        };
        for slot in report.outcomes {
            match slot {
                Ok(outcome) => stats.cells.push(self.absorb(outcome)),
                Err(failure) => stats.failures.push(failure),
            }
        }
        self.timings.extend(stats.cells.iter().cloned());
        stats
    }

    /// The execution plan for the given experiments: deduplicated cells
    /// not yet in this driver's run cache, fingerprinted once. The same
    /// planner the resident service uses ([`RequestPlan`]), so a request
    /// over the wire and a single-shot CLI run enumerate identical cells.
    pub fn plan(&self, experiments: &[Experiment]) -> RequestPlan {
        RequestPlan::for_experiments(experiments, self.build_options(), |key| {
            self.runs.contains_key(key)
        })
    }

    /// True when every cell `e` needs has already been simulated (or
    /// replayed), so rendering it will not trigger new simulations — the
    /// `--keep-going` path renders exactly the experiments this accepts.
    pub fn experiment_ready(&self, e: Experiment) -> bool {
        e.cells().iter().all(|c| self.runs.contains_key(&c.key()))
    }

    /// Records finished cells (e.g. streamed back from the resident
    /// service) in the run cache so the table/figure methods render from
    /// them without re-simulating.
    pub fn absorb_outcomes(&mut self, outcomes: impl IntoIterator<Item = CellOutcome>) {
        for outcome in outcomes {
            let timing = self.absorb(outcome);
            self.timings.push(timing);
        }
    }

    /// Records one finished cell in the run cache and returns its timing.
    fn absorb(&mut self, outcome: CellOutcome) -> CellTiming {
        let timing = CellTiming {
            key: outcome.cell.key(),
            ms: outcome.ms,
            build_ms: outcome.build_ms,
            prepare_ms: outcome.prepare_ms,
            analyze_ms: outcome.phases.analyze_ms,
            profile_ms: outcome.phases.profile_ms,
            rewrite_ms: outcome.phases.rewrite_ms,
            cached: outcome.phases.cached,
            sim_ms: outcome.sim_ms,
            decode_ms: outcome.decode_ms,
            prefetch_hits: outcome.prefetch_hits,
            spilled_mb: outcome.spilled_mb,
            spill_ms: outcome.spill_ms,
            sched_order: outcome.sched_order,
            os_misses: outcome.result.stats.total().os_read_misses(),
            journaled: outcome.journaled,
        };
        self.runs.insert(timing.key.clone(), outcome.result);
        timing
    }

    /// Runs (or retrieves) a simulation of `system` on `w`.
    pub fn run(&mut self, w: Workload, system: System) -> &RunResult {
        self.run_spec(w, system.spec(), Geometry::default(), system.label())
    }

    /// Runs (or retrieves) an arbitrary spec/geometry point. `tag` must
    /// uniquely identify the spec+geometry combination.
    pub fn run_spec(
        &mut self,
        w: Workload,
        spec: SystemSpec,
        geometry: Geometry,
        tag: &str,
    ) -> &RunResult {
        self.try_run_spec(w, spec, geometry, tag)
            .unwrap_or_else(|e| panic!("simulation failed: {e}"))
    }

    /// [`Repro::run_spec`] surfacing the error instead of panicking.
    /// Callers running under a memory budget use this so an *overloaded*
    /// rejection ([`oscache_memsys::SimError::is_overloaded`]) reaches the
    /// CLI as a structured exit code, not a panic.
    pub fn try_run_spec(
        &mut self,
        w: Workload,
        spec: SystemSpec,
        geometry: Geometry,
        tag: &str,
    ) -> Result<&RunResult, oscache_memsys::SimError> {
        let key = run_key(w, tag, geometry);
        if !self.runs.contains_key(&key) {
            let cell = Cell {
                workload: w,
                spec,
                geometry,
                tag: tag.to_string(),
            };
            let outcome = run_cell(&self.cache, self.build_options(), &cell)?;
            let timing = self.absorb(outcome);
            self.timings.push(timing);
        }
        Ok(&self.runs[&key])
    }

    // ---- tables ----------------------------------------------------------

    /// Table 1: workload characteristics under `Base`.
    pub fn table1(&mut self) -> Table1 {
        let rows = Workload::all().map(|w| {
            let r = self.run(w, System::Base);
            WorkloadMetrics::from_stats(&r.stats)
        });
        Table1 { rows }
    }

    /// Table 2: OS read-miss breakdown under `Base`.
    pub fn table2(&mut self) -> Table2 {
        let rows = Workload::all().map(|w| {
            let r = self.run(w, System::Base);
            MissBreakdown::from_stats(&r.stats)
        });
        Table2 { rows }
    }

    /// Table 3: block-operation characteristics (`Base` probes plus a
    /// `Blk_Bypass` probe run for the reuse rows).
    pub fn table3(&mut self) -> Table3 {
        let mut cols = Vec::new();
        for w in Workload::all() {
            let base = self.run(w, System::Base).stats.total();
            let total_misses = base.l1d_read_misses.total().max(1) as f64;
            let src_cached =
                100.0 * base.blk_src_lines_cached as f64 / base.blk_src_lines.max(1) as f64;
            let dst_owned = 100.0 * base.blk_dst_l2_owned as f64 / base.blk_dst_lines.max(1) as f64;
            let dst_shared =
                100.0 * base.blk_dst_l2_shared as f64 / base.blk_dst_lines.max(1) as f64;
            let ops = base.blk_size_buckets.iter().sum::<u64>().max(1) as f64;
            let displ_in = 100.0 * base.displ_inside as f64 / total_misses;
            let displ_out = 100.0 * base.displ_outside as f64 / total_misses;
            let bypass = self.run(w, System::BlkBypass).stats.total();
            let base_total = total_misses;
            let reuse_in = 100.0 * bypass.reuse_inside as f64 / base_total;
            let reuse_out = 100.0 * bypass.reuse_outside as f64 / base_total;
            cols.push(Table3Col {
                src_cached_pct: src_cached,
                dst_owned_pct: dst_owned,
                dst_shared_pct: dst_shared,
                page_pct: 100.0 * base.blk_size_buckets[0] as f64 / ops,
                med_pct: 100.0 * base.blk_size_buckets[1] as f64 / ops,
                small_pct: 100.0 * base.blk_size_buckets[2] as f64 / ops,
                displ_in_pct: displ_in,
                displ_out_pct: displ_out,
                reuse_in_pct: reuse_in,
                reuse_out_pct: reuse_out,
            });
        }
        Table3 {
            cols: cols.try_into().expect("four workloads"),
        }
    }

    /// Table 4: the deferred-copy study.
    pub fn table4(&mut self) -> Table4 {
        let mut cols = Vec::new();
        for w in Workload::all() {
            let counts = self.cache.deferral(w, self.build_options()).counts;
            let base = self
                .run(w, System::Base)
                .stats
                .total()
                .l1d_read_misses
                .total();
            let mut spec = System::Base.spec();
            spec.deferred_copy = true;
            let defer = self
                .run_spec(w, spec, Geometry::default(), "Base+Deferred")
                .stats
                .total()
                .l1d_read_misses
                .total();
            let eliminated = 100.0 * base.saturating_sub(defer) as f64 / base.max(1) as f64;
            cols.push(Table4Col {
                small_pct: counts.small_pct(),
                readonly_pct: counts.readonly_pct(),
                eliminated_pct: eliminated,
            });
        }
        Table4 {
            cols: cols.try_into().expect("four workloads"),
        }
    }

    /// Table 5: coherence-miss breakdown under `Base`.
    pub fn table5(&mut self) -> Table5 {
        let rows = Workload::all().map(|w| {
            let r = self.run(w, System::Base);
            CoherenceBreakdown::from_stats(&r.stats)
        });
        Table5 { rows }
    }

    // ---- figures ----------------------------------------------------------

    /// Figure 1: block-operation overhead components under `Base`.
    pub fn figure1(&mut self) -> Figure1 {
        let cols = Workload::all().map(|w| {
            let r = self.run(w, System::Base);
            BlockOpOverhead::from_stats(&r.stats)
        });
        Figure1 { cols }
    }

    /// Figure 2: normalized OS data misses under the block-operation
    /// schemes.
    pub fn figure2(&mut self) -> MissFigure {
        self.miss_figure(
            "Figure 2",
            &[
                System::Base,
                System::BlkPref,
                System::BlkBypass,
                System::BlkByPref,
                System::BlkDma,
            ],
            MissSplit::BlockOp,
        )
    }

    /// Figure 3: normalized OS execution time under all systems.
    pub fn figure3(&mut self) -> Figure3 {
        let systems = System::all();
        let mut cells = Vec::new();
        for w in Workload::all() {
            let base_total = {
                let r = self.run(w, System::Base);
                OsTimeBreakdown::from_stats(&r.stats).total().max(1)
            };
            let mut col = Vec::new();
            for sys in systems {
                let r = self.run(w, sys);
                let b = OsTimeBreakdown::from_stats(&r.stats);
                col.push((b, base_total));
            }
            cells.push(col);
        }
        Figure3 { systems, cells }
    }

    /// Figure 4: normalized OS misses under the coherence optimizations.
    pub fn figure4(&mut self) -> MissFigure {
        self.miss_figure(
            "Figure 4",
            &[
                System::Base,
                System::BlkDma,
                System::BCohReloc,
                System::BCohRelUp,
            ],
            MissSplit::Coherence,
        )
    }

    /// Figure 5: normalized OS misses with hot-spot prefetching.
    pub fn figure5(&mut self) -> MissFigure {
        self.miss_figure(
            "Figure 5",
            &[
                System::Base,
                System::BlkDma,
                System::BCohRelUp,
                System::BCPref,
            ],
            MissSplit::None,
        )
    }

    fn miss_figure(
        &mut self,
        name: &'static str,
        systems: &[System],
        split: MissSplit,
    ) -> MissFigure {
        let mut rows = Vec::new();
        for &sys in systems {
            let mut cells = Vec::new();
            for w in Workload::all() {
                let base = self.run(w, System::Base).stats.total().os_read_misses();
                let t = self.run(w, sys).stats.total();
                let total = t.os_read_misses();
                let split_part = match split {
                    MissSplit::BlockOp => t.os_miss_blockop,
                    MissSplit::Coherence => t.os_miss_coherence.iter().sum(),
                    MissSplit::None => 0,
                };
                cells.push(MissCell {
                    normalized: total as f64 / base.max(1) as f64,
                    split_normalized: split_part as f64 / base.max(1) as f64,
                });
            }
            rows.push((sys.label().to_string(), cells));
        }
        MissFigure {
            name,
            split_label: match split {
                MissSplit::BlockOp => "block-op",
                MissSplit::Coherence => "coherence",
                MissSplit::None => "",
            },
            rows,
        }
    }

    /// Figures 6/7: normalized OS execution time across a geometry sweep.
    /// `sweep` yields (label, geometry) points.
    pub fn geometry_figure(
        &mut self,
        name: &'static str,
        sweep: &[(String, Geometry)],
    ) -> GeometryFigure {
        let systems = [System::Base, System::BlkDma, System::BCPref];
        let mut rows = Vec::new();
        for (label, geom) in sweep {
            let mut cells = Vec::new();
            for w in Workload::all() {
                // Normalize to Base at the same geometry (as the paper does).
                let base = {
                    let tag = format!("Base@{label}");
                    let r = self.run_spec(w, System::Base.spec(), *geom, &tag);
                    OsTimeBreakdown::from_stats(&r.stats).total().max(1)
                };
                let mut point = Vec::new();
                for sys in systems {
                    let tag = format!("{}@{label}", sys.label());
                    let r = self.run_spec(w, sys.spec(), *geom, &tag);
                    let t = OsTimeBreakdown::from_stats(&r.stats).total();
                    point.push(t as f64 / base as f64);
                }
                cells.push(point);
            }
            rows.push((label.clone(), cells));
        }
        GeometryFigure {
            name,
            systems: systems.map(|s| s.label()),
            rows,
        }
    }

    /// Figure 6: the L1D size sweep (16/32/64 KB, 16-B lines).
    pub fn figure6(&mut self) -> GeometryFigure {
        self.geometry_figure("Figure 6", &figure6_sweep())
    }

    /// Figure 7: the L1 line-size sweep (16/32/64 B, 32-KB cache, 64-B L2
    /// lines as in the paper).
    pub fn figure7(&mut self) -> GeometryFigure {
        self.geometry_figure("Figure 7", &figure7_sweep())
    }

    /// The paper's §8 headline claims next to the measured equivalents.
    pub fn headline(&mut self) -> Headline {
        let mut red = 0.0;
        let mut speed = 0.0;
        let mut dma_speed = Vec::new();
        for w in Workload::all() {
            let base = self.run(w, System::Base).stats.clone();
            let bcpref = self.run(w, System::BCPref).stats.clone();
            let dma = self.run(w, System::BlkDma).stats.clone();
            let miss = |s: &oscache_memsys::SimStats| s.total().os_read_misses() as f64;
            let os = |s: &oscache_memsys::SimStats| OsTimeBreakdown::from_stats(s).total() as f64;
            red += 1.0 - miss(&bcpref) / miss(&base);
            speed += 1.0 - os(&bcpref) / os(&base);
            dma_speed.push(1.0 - os(&dma) / os(&base));
        }
        Headline {
            miss_reduction: red / 4.0,
            os_speedup: speed / 4.0,
            dma_speedup: dma_speed.try_into().expect("four workloads"),
        }
    }
}

/// Renders one experiment exactly as `repro <name>` prints it — the
/// canonical byte stream golden-filed under `tests/golden/` and streamed
/// back by the resident service, defined once so every consumer agrees.
/// Tables and figures end with a blank line; the headline's `Display`
/// carries its own framing; the scorecard is wrapped in one leading and
/// one trailing newline (matching the CLI's historical
/// `println!("\n{}", …)`).
pub fn render_experiment(r: &mut Repro, e: Experiment) -> String {
    match e {
        Experiment::Table1 => format!("{}\n\n", r.table1()),
        Experiment::Table2 => format!("{}\n\n", r.table2()),
        Experiment::Table3 => format!("{}\n\n", r.table3()),
        Experiment::Table4 => format!("{}\n\n", r.table4()),
        Experiment::Table5 => format!("{}\n\n", r.table5()),
        Experiment::Fig1 => format!("{}\n\n", r.figure1()),
        Experiment::Fig2 => format!("{}\n\n", r.figure2()),
        Experiment::Fig3 => format!("{}\n\n", r.figure3()),
        Experiment::Fig4 => format!("{}\n\n", r.figure4()),
        Experiment::Fig5 => format!("{}\n\n", r.figure5()),
        Experiment::Fig6 => format!("{}\n\n", r.figure6()),
        Experiment::Fig7 => format!("{}\n\n", r.figure7()),
        Experiment::Headline => r.headline().to_string(),
        Experiment::Scorecard => format!("\n{}\n", r.scorecard()),
    }
}

/// The geometry sweep of Figure 6 (L1D size).
pub fn figure6_sweep() -> Vec<(String, Geometry)> {
    [16u32, 32, 64]
        .iter()
        .map(|&kb| {
            (
                format!("{kb}KB"),
                Geometry {
                    l1d_size: kb * 1024,
                    ..Geometry::default()
                },
            )
        })
        .collect()
}

/// The geometry sweep of Figure 7 (L1 line size, 64-B L2 lines).
pub fn figure7_sweep() -> Vec<(String, Geometry)> {
    [16u32, 32, 64]
        .iter()
        .map(|&b| {
            (
                format!("{b}B"),
                Geometry {
                    l1_line: b,
                    l2_line: 64,
                    ..Geometry::default()
                },
            )
        })
        .collect()
}

#[derive(Clone, Copy)]
enum MissSplit {
    BlockOp,
    Coherence,
    None,
}

// ---- table/figure data types ---------------------------------------------

/// Table 1 data.
pub struct Table1 {
    /// One metrics row per workload.
    pub rows: [WorkloadMetrics; 4],
}

/// Table 2 data.
pub struct Table2 {
    /// One breakdown per workload.
    pub rows: [MissBreakdown; 4],
}

/// One Table 3 workload column.
#[derive(Clone, Copy, Debug)]
pub struct Table3Col {
    /// Source lines already in the L1D at op start (%).
    pub src_cached_pct: f64,
    /// Destination lines in the local L2, owned (%).
    pub dst_owned_pct: f64,
    /// Destination lines in the local L2, shared (%).
    pub dst_shared_pct: f64,
    /// Page-sized blocks (%).
    pub page_pct: f64,
    /// 1–4 KB blocks (%).
    pub med_pct: f64,
    /// Sub-1 KB blocks (%).
    pub small_pct: f64,
    /// Inside displacement misses / total data misses (%).
    pub displ_in_pct: f64,
    /// Outside displacement misses / total data misses (%).
    pub displ_out_pct: f64,
    /// Inside reuses / total data misses (%).
    pub reuse_in_pct: f64,
    /// Outside reuses / total data misses (%).
    pub reuse_out_pct: f64,
}

/// Table 3 data.
pub struct Table3 {
    /// One column per workload.
    pub cols: [Table3Col; 4],
}

/// One Table 4 workload column.
#[derive(Clone, Copy, Debug)]
pub struct Table4Col {
    /// Small copies / all copies (%).
    pub small_pct: f64,
    /// Read-only small copies / small copies (%).
    pub readonly_pct: f64,
    /// Misses eliminated by deferred copying (%).
    pub eliminated_pct: f64,
}

/// Table 4 data.
pub struct Table4 {
    /// One column per workload.
    pub cols: [Table4Col; 4],
}

/// Table 5 data.
pub struct Table5 {
    /// One coherence breakdown per workload.
    pub rows: [CoherenceBreakdown; 4],
}

/// Figure 1 data.
pub struct Figure1 {
    /// One overhead decomposition per workload.
    pub cols: [BlockOpOverhead; 4],
}

/// A cell of a normalized-miss figure.
#[derive(Clone, Copy, Debug)]
pub struct MissCell {
    /// OS read misses normalized to `Base`.
    pub normalized: f64,
    /// The highlighted sub-category, normalized to `Base`.
    pub split_normalized: f64,
}

/// Figures 2, 4, and 5.
pub struct MissFigure {
    /// Figure name.
    pub name: &'static str,
    /// Sub-category label ("block-op", "coherence", or empty).
    pub split_label: &'static str,
    /// `(system label, per-workload cells)` rows.
    pub rows: Vec<(String, Vec<MissCell>)>,
}

/// Figure 3 data: per workload, per system, the OS time decomposition and
/// the workload's `Base` total for normalization.
pub struct Figure3 {
    /// Systems in bar order.
    pub systems: [System; 8],
    /// `cells[workload][system]` = (breakdown, base total).
    pub cells: Vec<Vec<(OsTimeBreakdown, u64)>>,
}

impl Figure3 {
    /// Normalized OS time of one (workload, system) cell.
    pub fn normalized(&self, workload: usize, system: usize) -> f64 {
        let (b, base) = &self.cells[workload][system];
        b.total() as f64 / *base as f64
    }

    /// Average normalized OS time of a system across workloads.
    pub fn average(&self, system: usize) -> f64 {
        (0..self.cells.len())
            .map(|w| self.normalized(w, system))
            .sum::<f64>()
            / self.cells.len() as f64
    }
}

/// Figures 6 and 7.
pub struct GeometryFigure {
    /// Figure name.
    pub name: &'static str,
    /// System labels (Base, Blk_Dma, BCPref).
    pub systems: [&'static str; 3],
    /// `(sweep label, cells[workload][system])` rows.
    pub rows: Vec<(String, Vec<Vec<f64>>)>,
}

/// The paper's §8 headline numbers, measured.
#[derive(Clone, Copy, Debug)]
pub struct Headline {
    /// Average fraction of OS data misses eliminated or hidden by the
    /// full ladder (paper: ~0.75).
    pub miss_reduction: f64,
    /// Average OS execution-time reduction of the full ladder
    /// (paper: ~0.19).
    pub os_speedup: f64,
    /// Per-workload OS-time reduction of `Blk_Dma` alone
    /// (paper: 11–17%).
    pub dma_speedup: [f64; 4],
}

impl std::fmt::Display for Headline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Headline results [measured (paper)]")?;
        writeln!(f, "===================================")?;
        writeln!(
            f,
            "OS data misses eliminated or hidden:   {:.0}%  (paper: {:.0}%)",
            100.0 * self.miss_reduction,
            100.0 * paperref::HEADLINE_MISS_REDUCTION
        )?;
        writeln!(
            f,
            "OS execution-time reduction:           {:.0}%  (paper: {:.0}%)",
            100.0 * self.os_speedup,
            100.0 * paperref::HEADLINE_OS_SPEEDUP
        )?;
        writeln!(
            f,
            "Blk_Dma alone, per workload:           {}  (paper: 11-17%)",
            self.dma_speedup
                .iter()
                .map(|d| format!("{:.0}%", 100.0 * d))
                .collect::<Vec<_>>()
                .join(" ")
        )
    }
}
