//! Simulation driver: applies a [`SystemSpec`]'s software passes to a
//! trace, configures the machine, and runs it.

use crate::analysis;
use crate::config::{Geometry, System, SystemSpec, UpdatePolicy};
use crate::deferred::{self, DeferralSummary};
use crate::transform::{self, TransformPipeline};
use oscache_memsys::{AuditLevel, CancelToken, Machine, OverlapStats, PageSet, SimError, SimStats};
use oscache_trace::ChunkedTrace;
use std::collections::HashSet;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// The outcome of simulating one (workload, system, geometry) point.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Raw simulator counters.
    pub stats: SimStats,
    /// The spec that produced them.
    pub spec: SystemSpec,
    /// The geometry that produced them.
    pub geometry: Geometry,
}

/// Runs `system` on `trace` at the default geometry.
///
/// # Panics
///
/// Panics on a malformed trace or a simulator invariant violation; use
/// [`try_run_spec`] with `system.spec()` and the default geometry to
/// receive those as typed errors instead.
pub fn run_system(trace: &ChunkedTrace, system: System) -> RunResult {
    run_spec(trace, system.spec(), Geometry::default())
}

/// Runs a fully-specified system at a given geometry.
///
/// The software passes mirror the paper's §5–§6 methodology:
///
/// 1. profile the trace's sharing behaviour;
/// 2. privatize counters and relocate falsely-shared variables (§5.1),
///    gathering the §5.2 update set into one update-mapped page;
/// 3. for hot-spot prefetching (§6), first run a *profiling* simulation of
///    the system without prefetches (the spec's [`SystemSpec::twin`]),
///    rank sites by its OS misses, insert prefetches at the top 12, then
///    run the final simulation.
pub fn run_spec(trace: &ChunkedTrace, spec: SystemSpec, geometry: Geometry) -> RunResult {
    try_run_spec_audited(trace, spec, geometry, AuditLevel::Off)
        .unwrap_or_else(|e| panic!("simulation failed: {e}"))
}

/// Fallible variant of [`run_spec`] with no invariant auditing.
pub fn try_run_spec(
    trace: &ChunkedTrace,
    spec: SystemSpec,
    geometry: Geometry,
) -> Result<RunResult, SimError> {
    try_run_spec_audited(trace, spec, geometry, AuditLevel::Off)
}

/// A trace fully prepared for its final machine run: every software pass
/// of the spec (deferred copy, coloring, privatize/relocate/update
/// planning) has been applied, and the hot-spot prefetches the replay
/// merges in (§6) are selected.
///
/// Preparation is deterministic: equal `(trace, spec, geometry, audit)`
/// inputs always produce an identical `PreparedCell`, which is what lets
/// the runner's cache share prepared traces across experiments keyed by a
/// config fingerprint.
#[derive(Clone, Debug)]
pub struct PreparedCell {
    /// The analysis's working trace, or `None` when no pass touched it
    /// (run the original). Shared by every cell of the same analysis; a
    /// hot-spot cell's prefetches are *not* in it (see `prefetches`).
    pub trace: Option<Arc<ChunkedTrace>>,
    /// Pages mapped with the update protocol (§5.2).
    pub update_pages: PageSet,
    /// The hot-spot prefetches the replay merges into `trace`, for specs
    /// with `hotspot_prefetch`.
    pub prefetches: Option<HotPrefetches>,
}

/// The §6 prefetches of one hot-spot cell: the analysis's plan (every
/// site's would-be insertions, shared by all geometries) and the sites
/// its twin's replay ranked hot. The replay splices the hot
/// entries into its decode windows
/// ([`Machine::with_prefetches`]); no rewritten trace is encoded.
#[derive(Clone, Debug)]
pub struct HotPrefetches {
    /// Insertion plan over the working trace.
    pub plan: Arc<transform::HotspotPlan>,
    /// The cell's hot sites.
    pub hot: Vec<u16>,
}

/// The geometry-independent keys of a [`SystemSpec`]: two specs with equal
/// prefixes produce identical [`AnalyzedCell`]s for the same base trace,
/// whatever their geometry or `hotspot_prefetch` flag. This is the
/// analysis-cache key — e.g. `BCoh_RelUp` and `BCPref` share one entry.
///
/// Soundness: every pass in [`analyze_cell`] reads only these flags and
/// the trace. Page coloring also reads the L2 size, which [`Geometry`]
/// never varies (it has no L2-size field; see
/// [`Geometry::machine_config`]).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct AnalysisPrefix {
    /// §4.2.1 deferred sub-page copies.
    pub deferred_copy: bool,
    /// §7 page coloring.
    pub page_coloring: bool,
    /// §5.1 counter privatization.
    pub privatize: bool,
    /// §5.1 false-sharing relocation.
    pub relocate: bool,
    /// §5.2 update policy.
    pub update: UpdatePolicy,
}

impl AnalysisPrefix {
    /// The prefix of `spec`.
    pub fn of(spec: SystemSpec) -> Self {
        AnalysisPrefix {
            deferred_copy: spec.deferred_copy,
            page_coloring: spec.page_coloring,
            privatize: spec.privatize,
            relocate: spec.relocate,
            update: spec.update,
        }
    }
}

/// The geometry-independent half of cell preparation: the working trace
/// after every software rewrite that precedes hot-spot profiling, plus the
/// update-page set, plus the lazily-built hot-spot plan shared by every
/// geometry probing this trace.
#[derive(Debug, Default)]
pub struct AnalyzedCell {
    /// Working trace after the prefix passes, or `None` (base is usable).
    pub trace: Option<Arc<ChunkedTrace>>,
    /// Pages mapped with the update protocol (§5.2).
    pub update_pages: PageSet,
    /// Per-site hot-spot insertion plan over the working trace, built on
    /// the first hotspot-using preparation.
    hot_plan: OnceLock<Arc<transform::HotspotPlan>>,
}

/// Wall-clock breakdown of one cell preparation.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PrepPhases {
    /// Prefix analysis + rewrite (zero on an analysis-cache hit).
    pub analyze_ms: f64,
    /// The hot-spot cell's twin replay (the §6 profiling run), when this
    /// cell ran it; zero when the twin's result was shared or waited for.
    pub profile_ms: f64,
    /// Building the analysis's hot-spot insertion plan, when this cell
    /// built it; zero for a cell that found the plan built or waited for
    /// its builder, as `analyze_ms` is zero on an analysis hit. No trace
    /// is rewritten; the replay merges the plan.
    pub rewrite_ms: f64,
    /// The cell reused a result (an identical-fingerprint cell's, or a
    /// journal record): every phase was skipped.
    pub cached: bool,
}

/// Runs a fully-specified system with the machine's invariant auditor set
/// to `audit`, returning trace and invariant problems as typed errors:
/// analyze, prepare, run — every phase streaming.
///
/// Preparation composes [`analyze_cell`] and [`prepare_from_analysis`]. A
/// hot-spot spec first replays its twin on the same analysis, at the same
/// audit level, and ranks its sites from that result; callers that run
/// several cells of one analysis share the analysis and the twin results
/// instead, as the runner's [`TraceCache`](crate::runner::TraceCache)
/// does.
pub fn try_run_spec_audited(
    trace: &ChunkedTrace,
    spec: SystemSpec,
    geometry: Geometry,
    audit: AuditLevel,
) -> Result<RunResult, SimError> {
    let analyzed = analyze_cell(trace, spec);
    let none = CancelToken::none();
    let run = |spec: SystemSpec, twin: Option<&SimStats>| -> Result<RunResult, SimError> {
        let (prepared, _phases) = prepare_from_analysis(trace, &analyzed, spec, twin)?;
        run_prepared_chunked_timed(trace, &prepared, spec, geometry, audit, &none).map(|(r, _)| r)
    };
    let twin = if spec.hotspot_prefetch {
        Some(run(spec.twin(), None)?.stats)
    } else {
        None
    };
    run(spec, twin.as_ref())
}

/// The geometry-independent preparation prefix: deferred copy, page
/// coloring, sharing profiling, privatization/relocation/update planning,
/// and the fused rewrite. Deterministic in `(trace, AnalysisPrefix::of
/// (spec))`; infallible because no machine runs here.
///
/// Each step — deferred copy, coloring, the fused privatize/relocate
/// rewrite — is one streaming [`TransformPipeline`] run over the previous
/// step's encoded output, which that step's plan (deferral summary,
/// first-touch colors, sharing profile) reads. The relocation plans
/// themselves ([`transform::false_sharing_plan`] etc.) read only the
/// metadata.
pub fn analyze_cell(trace: &ChunkedTrace, spec: SystemSpec) -> AnalyzedCell {
    let deferral = spec.deferred_copy.then(|| deferred::summarize(trace));
    analyze_cell_with(trace, spec, deferral.as_ref())
}

/// [`analyze_cell`], given the trace's deferral summary exactly when the
/// spec defers copies (the runner's cache computes it once per base
/// trace).
pub(crate) fn analyze_cell_with(
    trace: &ChunkedTrace,
    spec: SystemSpec,
    deferral: Option<&DeferralSummary>,
) -> AnalyzedCell {
    let mut update_pages = PageSet::new();
    let mut owned: Option<ChunkedTrace> = None;

    debug_assert_eq!(deferral.is_some(), spec.deferred_copy);
    if let Some(summary) = deferral {
        owned = Some(TransformPipeline::new().defer(summary).run(trace));
    }

    if spec.page_coloring {
        // Coloring materializes before planning: the sharing profile and
        // the hot-spot profiling run must observe colored addresses
        // exactly as the sequential pass chain produced them. The L2 size
        // is geometry-independent (every Geometry maps to the base 256-KB
        // L2), which is what lets this whole phase be geometry-free.
        let l2_size = Geometry::default().machine_config(&spec).l2.size;
        let working = owned.as_ref().unwrap_or(trace);
        let colored = TransformPipeline::new()
            .coloring(working, l2_size)
            .run(working);
        owned = Some(colored);
    }

    if spec.privatize || spec.relocate || spec.update != UpdatePolicy::None {
        let working = owned.as_ref().unwrap_or(trace);
        let profile = analysis::profile_sharing(working);
        let privatized = if spec.privatize {
            analysis::find_privatizable(&profile)
        } else {
            Vec::new()
        };
        // Build one combined relocation plan: update-set members go to the
        // update page; other falsely-shared variables get their own lines.
        let mut plan = transform::RelocationMap::new();
        let mut placed: HashSet<u32> = HashSet::new();
        if spec.update == UpdatePolicy::Selective {
            let set = analysis::find_update_set(&profile, &privatized);
            let (upd_plan, pages) = transform::update_page_plan(&working.meta, &set);
            update_pages = pages.into_iter().collect();
            // Record which variables the update plan placed.
            for w in set.all_words() {
                if let Some(v) = working.meta.var_at(w) {
                    placed.insert(v.addr.0);
                } else {
                    placed.insert(w.0);
                }
            }
            plan = upd_plan;
        }
        if spec.relocate {
            let fs = transform::false_sharing_plan(&working.meta, &placed);
            // Merge: false-sharing moves for anything not already placed.
            for v in &working.meta.vars {
                if v.false_shared_group.is_some()
                    && !placed.contains(&v.addr.0)
                    && plan.lookup(v.addr).is_none()
                {
                    if let Some(new) = fs.lookup(v.addr) {
                        plan.add(v.addr, v.size, new);
                    }
                }
            }
        }
        plan.finish();
        // One fused walk applies privatization and relocation together —
        // the old chain cloned and rewrote the trace once per pass.
        let mut pipe = TransformPipeline::new();
        if spec.privatize && !privatized.is_empty() {
            pipe = pipe.privatize(&privatized);
        }
        if !plan.is_empty() {
            pipe = pipe.relocate(&plan);
        }
        owned = Some(pipe.run(working));
    }

    if spec.update == UpdatePolicy::Full {
        let working = owned.as_ref().unwrap_or(trace);
        update_pages = transform::full_update_pages(&working.meta)
            .into_iter()
            .collect();
    }

    AnalyzedCell {
        trace: owned.map(Arc::new),
        update_pages,
        hot_plan: OnceLock::new(),
    }
}

/// The cell-specific preparation suffix: for a hot-spot spec, ranks the
/// sites by the OS misses of `twin` — the full result of the spec's
/// [`SystemSpec::twin`] at the cell's geometry, the §6 profiling run —
/// and selects the prefetches the replay merges from the analysis's
/// [`transform::HotspotPlan`]. For specs without `hotspot_prefetch`
/// (`twin` is `None`) this just repackages the analysis. No machine runs
/// here.
///
/// The plan is built once per analysis, on the first hot-spot cell, and
/// shared by every geometry; each cell carries only its hot-site list.
///
/// # Panics
///
/// Panics if a hot-spot spec comes without its twin's stats.
pub fn prepare_from_analysis(
    trace: &ChunkedTrace,
    analyzed: &AnalyzedCell,
    spec: SystemSpec,
    twin: Option<&SimStats>,
) -> Result<(PreparedCell, PrepPhases), SimError> {
    let mut phases = PrepPhases::default();
    let working: &ChunkedTrace = analyzed.trace.as_deref().unwrap_or(trace);
    let prefetches = spec.hotspot_prefetch.then(|| {
        let twin = twin.expect("a hot-spot cell ranks its sites from its twin's stats");
        let hot = analysis::find_hot_spots(&twin.total(), &working.meta.code);
        let plan = analyzed.hot_plan.get_or_init(|| {
            let t0 = Instant::now();
            let plan = Arc::new(transform::build_hotspot_plan(working));
            phases.rewrite_ms = 1e3 * t0.elapsed().as_secs_f64();
            plan
        });
        HotPrefetches {
            plan: Arc::clone(plan),
            hot,
        }
    });

    // Reject an invalid working trace before the timed final run. For
    // every trace the encoder vouched for this reads no chunk back: its
    // streams carry the facts that prove it valid. Only a trace with a
    // violation pays the full scan, which names the offending event.
    working.validate_for_cpus(trace.n_cpus())?;

    Ok((
        PreparedCell {
            trace: analyzed.trace.clone(),
            update_pages: analyzed.update_pages.clone(),
            prefetches,
        },
        phases,
    ))
}

/// The execution half of [`try_run_spec_audited`]: one deterministic
/// single-threaded machine run over the prepared trace, with the cell's
/// hot-spot prefetches merged in and `cancel`
/// wired into the machine's event loop (a tripped token surfaces as
/// [`SimErrorKind::Cancelled`](oscache_memsys::SimErrorKind::Cancelled)).
/// The machine pulls decoded events through small per-CPU windows, so the
/// run's peak memory is the encoded chunks plus O(n_cpus) decode windows.
///
/// Also reports the machine's decode-overlap telemetry: residual
/// synchronous-decode milliseconds and decode-ahead hit counts (DESIGN.md
/// §17). The telemetry is pure observability — it never feeds back into
/// the statistics.
pub fn run_prepared_chunked_timed(
    trace: &ChunkedTrace,
    prepared: &PreparedCell,
    spec: SystemSpec,
    geometry: Geometry,
    audit: AuditLevel,
    cancel: &CancelToken,
) -> Result<(RunResult, OverlapStats), SimError> {
    let mut cfg = geometry.machine_config(&spec);
    cfg.n_cpus = trace.n_cpus();
    cfg.update_pages = prepared.update_pages.clone();
    cfg.audit = audit;
    cfg.cancel = cancel.clone();
    let working = prepared.trace.as_deref().unwrap_or(trace);
    let mut machine = match &prepared.prefetches {
        Some(p) => Machine::with_prefetches(cfg, working, &p.plan, &p.hot)?,
        None => Machine::new(cfg, working)?,
    };
    let stats = machine.run_mut()?;
    Ok((
        RunResult {
            stats,
            spec,
            geometry,
        },
        machine.overlap_stats(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use oscache_workloads::{build_chunked, BuildOptions, Workload};

    fn trace() -> ChunkedTrace {
        build_chunked(
            Workload::Trfd4,
            BuildOptions {
                scale: 0.05,
                seed: 5,
                ..Default::default()
            },
        )
    }

    #[test]
    fn base_run_produces_misses_in_every_category() {
        let t = trace();
        let r = run_system(&t, System::Base);
        let total = r.stats.total();
        assert!(total.os_miss_blockop > 0, "no block-op misses");
        assert!(
            total.os_miss_coherence.iter().sum::<u64>() > 0,
            "no coherence misses"
        );
        assert!(total.os_miss_other > 0, "no other misses");
        assert!(total.idle_cycles > 0);
        assert!(total.exec_cycles.user > 0);
    }

    #[test]
    fn ladder_monotonically_reduces_os_misses() {
        let t = trace();
        let base = run_system(&t, System::Base).stats.total().os_read_misses();
        let dma = run_system(&t, System::BlkDma)
            .stats
            .total()
            .os_read_misses();
        let relup = run_system(&t, System::BCohRelUp)
            .stats
            .total()
            .os_read_misses();
        let bcpref = run_system(&t, System::BCPref)
            .stats
            .total()
            .os_read_misses();
        assert!(dma < base, "Blk_Dma {dma} !< Base {base}");
        assert!(relup < dma, "BCoh_RelUp {relup} !< Blk_Dma {dma}");
        assert!(bcpref < relup, "BCPref {bcpref} !< BCoh_RelUp {relup}");
        // Headline shape: the full ladder removes well over half the misses.
        assert!(
            (bcpref as f64) < 0.55 * base as f64,
            "ladder only reached {bcpref}/{base}"
        );
    }

    #[test]
    fn dma_speeds_up_the_os() {
        let t = trace();
        let base = run_system(&t, System::Base);
        let dma = run_system(&t, System::BlkDma);
        let os = |r: &RunResult| crate::metrics::OsTimeBreakdown::from_stats(&r.stats).total();
        assert!(
            os(&dma) < os(&base),
            "Blk_Dma OS time {} !< Base {}",
            os(&dma),
            os(&base)
        );
    }

    #[test]
    fn selective_update_adds_modest_traffic() {
        let t = trace();
        let reloc = run_system(&t, System::BCohReloc);
        let relup = run_system(&t, System::BCohRelUp);
        assert!(relup.stats.bus.update_words > 0);
        // §5.2: the miss reduction costs only a few percent more traffic.
        let tr = |r: &RunResult| r.stats.bus.busy_cycles as f64;
        assert!(
            tr(&relup) < tr(&reloc) * 1.25,
            "update traffic exploded: {} vs {}",
            tr(&relup),
            tr(&reloc)
        );
    }

    #[test]
    fn full_update_has_more_traffic_than_selective() {
        let t = trace();
        let spec = System::BCohRelUp.spec();
        let selective = run_spec(&t, spec, Geometry::default());
        // The pure-update comparison point applies the update protocol to
        // every kernel page of the *unoptimized* kernel (§5.2).
        let mut spec = System::BlkDma.spec();
        spec.update = UpdatePolicy::Full;
        let full = run_spec(&t, spec, Geometry::default());
        assert!(
            full.stats.bus.update_words > selective.stats.bus.update_words,
            "full {} !> selective {}",
            full.stats.bus.update_words,
            selective.stats.bus.update_words
        );
    }
}
