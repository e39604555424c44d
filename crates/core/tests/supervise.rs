//! Supervision-layer guarantees (DESIGN.md §13): an injected panic costs
//! exactly its own cell, bounded retry is deterministic, a flag-only soft
//! deadline records overruns but never kills, and a journaled run killed
//! at any cell boundary resumes to byte-identical results while
//! re-simulating only the cells the journal does not yet hold.

use oscache_core::runner::{run_cells_supervised, Cell, TraceCache};
use oscache_core::supervise::{
    stats_from_json, stats_to_json, Journal, JournalError, JournalHeader, JournalRecord,
};
use oscache_core::{Escalation, FailureCause, RunPolicy, RunResult, SupervisedReport, System};
use oscache_memsys::faults::CellFault;
use oscache_memsys::{BusStats, CpuStats, ModeSplit, SimStats};
use oscache_trace::rng::{Rng, RngCore, SmallRng};
use oscache_trace::DataClass;
use oscache_workloads::{BuildOptions, Workload};
use std::collections::BTreeMap;
use std::path::PathBuf;

const SCALE: f64 = 0.02;

fn opts() -> BuildOptions {
    BuildOptions {
        scale: SCALE,
        ..Default::default()
    }
}

/// A small but heterogeneous cell set: two workloads, two block-op
/// schemes — enough to have distinct fingerprints and visible failures.
fn subset() -> Vec<Cell> {
    let mut cells = Vec::new();
    for w in [Workload::Trfd4, Workload::Shell] {
        for sys in [System::Base, System::BlkDma] {
            cells.push(Cell::system(w, sys));
        }
    }
    cells
}

/// A stable bytewise report of one result (hash-map-free, same idea as
/// tests/runner.rs).
fn report(r: &RunResult) -> String {
    let t = r.stats.total();
    format!(
        "spec={:?} geom={:?} osm={} blk={} coh={:?} other={} idle={} user={} os={} bus={}\n",
        r.spec,
        r.geometry,
        t.os_read_misses(),
        t.os_miss_blockop,
        t.os_miss_coherence,
        t.os_miss_other,
        t.idle_cycles,
        t.exec_cycles.user,
        t.exec_cycles.os,
        r.stats.bus.busy_cycles,
    )
}

/// Renders a supervised report as stable bytes: the result for completed
/// slots, a failure marker for failed ones.
fn partial_report(rep: &SupervisedReport) -> String {
    rep.outcomes
        .iter()
        .map(|slot| match slot {
            Ok(o) => report(&o.result),
            Err(f) => format!("FAILED {} cause={}\n", f.cell.key(), f.cause.class()),
        })
        .collect()
}

/// The smallest seed whose fault targets *some but not all* of the cells
/// (so a run under it is genuinely partial). Pure scan — deterministic.
fn partial_seed(keys: &[String], period: u32) -> u64 {
    (0..10_000)
        .find(|&seed| {
            let f = CellFault {
                seed,
                period,
                attempts: u32::MAX,
            };
            let hits = keys.iter().filter(|k| f.targets(k)).count();
            hits > 0 && hits < keys.len()
        })
        .expect("some seed under 10000 must split the cell set")
}

/// An uninjected fail-fast serial run: every cell's result, in cell order.
fn clean_run(cells: &[Cell]) -> Vec<RunResult> {
    run_cells_supervised(
        &TraceCache::new(),
        opts(),
        cells,
        1,
        &RunPolicy::fail_fast(),
        None,
    )
    .outcomes
    .into_iter()
    .map(|slot| slot.expect("clean run").result)
    .collect()
}

fn tmp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "oscache-supervise-{}-{name}.jsonl",
        std::process::id()
    ))
}

#[test]
fn injected_panic_costs_exactly_its_cell_and_is_deterministic() {
    let cells = subset();
    let keys: Vec<String> = cells.iter().map(|c| c.key()).collect();
    let fault = CellFault {
        seed: partial_seed(&keys, 2),
        period: 2,
        attempts: u32::MAX,
    };
    let policy = RunPolicy {
        inject: Some(fault),
        ..RunPolicy::default()
    };
    let run =
        |jobs: usize| run_cells_supervised(&TraceCache::new(), opts(), &cells, jobs, &policy, None);
    let serial = run(1);
    let par_a = run(4);
    let par_b = run(4);
    // Exactly the targeted cells fail, with the panic converted to a
    // typed cause; everything else completes.
    for (i, slot) in serial.outcomes.iter().enumerate() {
        assert_eq!(
            slot.is_err(),
            fault.targets(&keys[i]),
            "slot {i} does not match the fault's targeting"
        );
        if let Err(f) = slot {
            assert!(matches!(&f.cause, FailureCause::Panic(m) if m.contains("injected")));
            assert_eq!(f.attempt, 0, "fail-fast policy must not retry");
        }
    }
    // Same seed ⇒ identical partial reports, at any job count.
    assert_eq!(partial_report(&serial), partial_report(&par_a));
    assert_eq!(partial_report(&par_a), partial_report(&par_b));
    // The completed cells are bitwise-identical to an uninjected run.
    let clean = clean_run(&cells);
    for (slot, out) in serial.outcomes.iter().zip(&clean) {
        if let Ok(o) = slot {
            assert_eq!(report(&o.result), report(out));
        }
    }
}

#[test]
fn bounded_retry_overcomes_transient_faults_deterministically() {
    let cells = subset();
    let keys: Vec<String> = cells.iter().map(|c| c.key()).collect();
    // Transient: each targeted cell panics on attempts 0 and 1, then
    // succeeds on attempt 2 — within the 3 granted retries.
    let fault = CellFault {
        seed: partial_seed(&keys, 2),
        period: 2,
        attempts: 2,
    };
    let targeted = keys.iter().filter(|k| fault.targets(k)).count() as u64;
    let policy = RunPolicy {
        max_retries: 3,
        backoff_ms: 0,
        inject: Some(fault),
        ..RunPolicy::default()
    };
    let run = || run_cells_supervised(&TraceCache::new(), opts(), &cells, 2, &policy, None);
    let a = run();
    assert_eq!(a.completed(), cells.len(), "a transient fault must heal");
    assert_eq!(a.retries, 2 * targeted, "two retries per targeted cell");
    for (i, slot) in a.outcomes.iter().enumerate() {
        let o = slot.as_ref().expect("all cells complete");
        let want = if fault.targets(&keys[i]) { 2 } else { 0 };
        assert_eq!(o.attempt, want, "attempt count for {}", keys[i]);
    }
    // Retrying must not perturb results: bitwise-identical to a clean run,
    // and to a second supervised run.
    let b = run();
    assert_eq!(partial_report(&a), partial_report(&b));
    let clean = clean_run(&cells);
    for (slot, out) in a.outcomes.iter().zip(&clean) {
        assert_eq!(report(&slot.as_ref().unwrap().result), report(out));
    }
}

#[test]
fn retry_exhaustion_keeps_the_cause_and_reports_completed_work() {
    let cells = subset();
    let keys: Vec<String> = cells.iter().map(|c| c.key()).collect();
    let fault = CellFault {
        seed: partial_seed(&keys, 2),
        period: 2,
        attempts: u32::MAX, // permanent: retries cannot heal it
    };
    let policy = RunPolicy {
        max_retries: 1,
        backoff_ms: 0,
        inject: Some(fault),
        ..RunPolicy::default()
    };
    let rep = run_cells_supervised(&TraceCache::new(), opts(), &cells, 2, &policy, None);
    let completed = rep.completed();
    let failed = rep.failures().len();
    assert!(failed > 0 && completed > 0, "the fault must split the set");
    for f in rep.failures() {
        assert_eq!(f.attempt, 1, "exhaustion must report the last attempt");
        assert!(matches!(&f.cause, FailureCause::Panic(m) if m.contains("injected")));
    }
    // The failures come in cell-index order, and every cell is either
    // completed or failed — never a silent discard.
    let first_failed = keys.iter().find(|k| fault.targets(k)).unwrap().clone();
    let first = rep.failures()[0];
    assert_eq!(first.cell.key(), first_failed);
    assert_eq!(completed + failed, cells.len());
    let msg = first.to_string();
    assert!(
        msg.contains(&first_failed) && msg.contains("attempt 1"),
        "unhelpful error: {msg}"
    );
}

#[test]
fn watchdog_flags_overruns_but_never_kills() {
    let cells = subset();
    let policy = RunPolicy {
        soft_deadline_ms: Some(1), // everything overruns a 1 ms deadline
        ..RunPolicy::default()
    };
    let rep = run_cells_supervised(&TraceCache::new(), opts(), &cells, 2, &policy, None);
    assert_eq!(
        rep.completed(),
        cells.len(),
        "a soft deadline must never fail a cell"
    );
    assert!(!rep.overruns.is_empty(), "1 ms deadline flagged nothing");
    let mut sorted = rep.overruns.clone();
    sorted.sort_by(|a, b| a.key.cmp(&b.key).then(a.attempt.cmp(&b.attempt)));
    for (a, b) in rep.overruns.iter().zip(&sorted) {
        assert_eq!(
            (&a.key, a.attempt),
            (&b.key, b.attempt),
            "overruns unsorted"
        );
    }
    for o in &rep.overruns {
        assert_eq!(o.deadline_ms, 1);
        assert!(o.elapsed_ms > 1.0, "flagged before the deadline elapsed");
    }
}

/// Fills a [`CpuStats`] with random values in every field, including the
/// three maps and the per-site vector.
#[allow(clippy::field_reassign_with_default)]
fn random_cpu(rng: &mut SmallRng) -> CpuStats {
    let split = |r: &mut SmallRng| ModeSplit {
        user: r.next_u64(),
        os: r.next_u64(),
    };
    let mut c = CpuStats::default();
    c.exec_cycles = split(rng);
    c.imiss_cycles = split(rng);
    c.dread_cycles = split(rng);
    c.dwrite_cycles = split(rng);
    c.pref_cycles = split(rng);
    c.sync_cycles = split(rng);
    c.dreads = split(rng);
    c.dwrites = split(rng);
    c.l1d_read_misses = split(rng);
    c.l1i_misses = split(rng);
    c.idle_cycles = rng.next_u64();
    c.os_miss_blockop = rng.next_u64();
    c.os_miss_coherence = [0; 5].map(|_| rng.next_u64());
    c.os_miss_other = rng.next_u64();
    c.os_miss_by_site = (0..rng.gen_range(0..8usize))
        .map(|_| rng.next_u64())
        .collect();
    c.displ_inside = rng.next_u64();
    c.displ_outside = rng.next_u64();
    c.reuse_inside = rng.next_u64();
    c.reuse_outside = rng.next_u64();
    c.blk_read_stall = rng.next_u64();
    c.blk_write_stall = rng.next_u64();
    c.blk_exec_cycles = rng.next_u64();
    c.blk_displ_stall = rng.next_u64();
    c.blk_src_lines = rng.next_u64();
    c.blk_src_lines_cached = rng.next_u64();
    c.blk_dst_lines = rng.next_u64();
    c.blk_dst_l2_owned = rng.next_u64();
    c.blk_dst_l2_shared = rng.next_u64();
    c.blk_size_buckets = [0; 3].map(|_| rng.next_u64());
    c.blk_ops = rng.next_u64();
    c.prefetches_issued = rng.next_u64();
    c.prefetch_full_hits = rng.next_u64();
    c.prefetch_partial_hits = rng.next_u64();
    let classes = DataClass::all();
    for _ in 0..rng.gen_range(0..6usize) {
        let k = classes[rng.gen_range(0..classes.len())];
        c.os_miss_by_class[k as usize] = rng.next_u64();
    }
    let locks: BTreeMap<u16, u64> = (0..rng.gen_range(0..6usize))
        .map(|_| (rng.gen_range(0..64u64) as u16, rng.next_u64()))
        .collect();
    c.lock_wait_cycles = locks.into_iter().collect();
    let pairs: BTreeMap<(DataClass, DataClass), u64> = (0..rng.gen_range(0..6usize))
        .map(|_| {
            let a = classes[rng.gen_range(0..classes.len())];
            let b = classes[rng.gen_range(0..classes.len())];
            ((a, b), rng.next_u64())
        })
        .collect();
    c.conflict_pairs = pairs.into_iter().collect();
    c
}

#[test]
fn journal_stats_serde_round_trips_exactly() {
    // Property test over seeded random stats: serialization is canonical
    // (maps key-sorted), so serialize → parse → serialize must be a fixed
    // point, and full-range u64 counters must survive exactly (numbers
    // are kept as text, never bounced through f64).
    for seed in 0..25u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let stats = SimStats {
            cpus: (0..rng.gen_range(1..5usize))
                .map(|_| random_cpu(&mut rng))
                .collect(),
            bus: BusStats {
                read_lines: rng.next_u64(),
                read_exclusive: rng.next_u64(),
                invalidations: rng.next_u64(),
                write_backs: rng.next_u64(),
                line_writes: rng.next_u64(),
                update_words: rng.next_u64(),
                dma_transfers: rng.next_u64(),
                busy_cycles: rng.next_u64(),
            },
            cpu_times: (0..rng.gen_range(0..5usize))
                .map(|_| rng.next_u64())
                .collect(),
        };
        let json = stats_to_json(&stats);
        let parsed = stats_from_json(&json).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert_eq!(
            stats_to_json(&parsed),
            json,
            "seed {seed}: round trip is not a fixed point"
        );
        assert_eq!(parsed, stats, "seed {seed}: round trip changed the stats");
    }
    assert!(stats_from_json("{\"cpus\":oops").is_err());
    assert!(stats_from_json("{\"cpus\":[]}").is_err(), "missing fields");
}

#[test]
fn journal_resume_from_any_cell_boundary_is_byte_identical() {
    let cells = subset();
    let path = tmp_path("resume");
    let _ = std::fs::remove_file(&path);
    let header = JournalHeader::new(&opts());
    // The uninterrupted reference: serial, no journal.
    let reference: String = clean_run(&cells).iter().map(report).collect();
    // A full journaled run, which the boundary loop below re-truncates.
    let full = {
        let j = Journal::create(&path, header).expect("create journal");
        let rep = run_cells_supervised(
            &TraceCache::new(),
            opts(),
            &cells,
            2,
            &RunPolicy::fail_fast(),
            Some(&j),
        );
        assert_eq!(rep.completed(), cells.len());
        assert_eq!(rep.journal_hits, 0, "a fresh journal cannot hit");
        assert_eq!(j.len(), cells.len(), "every cell must be journaled");
        std::fs::read_to_string(&path).expect("read journal")
    };
    // Kill the run at every cell boundary k (k completed cells survived),
    // then resume: exactly k journal hits, byte-identical results.
    for k in 0..=cells.len() {
        std::fs::write(&path, &full).expect("restore journal");
        let j = Journal::resume(&path, header).expect("reopen journal");
        j.truncate(k).expect("truncate journal");
        drop(j);
        let j = Journal::resume(&path, header).expect("resume journal");
        assert_eq!(j.len(), k);
        let rep = run_cells_supervised(
            &TraceCache::new(),
            opts(),
            &cells,
            2,
            &RunPolicy::fail_fast(),
            Some(&j),
        );
        assert_eq!(rep.completed(), cells.len(), "boundary {k}");
        assert_eq!(rep.journal_hits, k, "boundary {k}: wrong replay count");
        let journaled = rep
            .outcomes
            .iter()
            .filter(|s| s.as_ref().is_ok_and(|o| o.journaled))
            .count();
        assert_eq!(journaled, k, "boundary {k}: wrong journaled flags");
        let rendered: String = rep
            .outcomes
            .iter()
            .map(|s| report(&s.as_ref().unwrap().result))
            .collect();
        assert_eq!(rendered, reference, "boundary {k}: results diverged");
        assert_eq!(j.len(), cells.len(), "boundary {k}: journal not refilled");
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn journal_rejects_mismatched_headers_and_corrupt_records() {
    let path = tmp_path("hygiene");
    let _ = std::fs::remove_file(&path);
    let header = JournalHeader::new(&opts());
    Journal::create(&path, header).expect("create journal");
    // Scale mismatch.
    let other_scale = BuildOptions {
        scale: 0.1,
        ..Default::default()
    };
    match Journal::resume(&path, JournalHeader::new(&other_scale)).err() {
        Some(JournalError::HeaderMismatch { field, .. }) => assert_eq!(field, "scale_bits"),
        other => panic!("scale mismatch not rejected: {other:?}"),
    }
    // Seed mismatch.
    let other_seed = BuildOptions {
        scale: SCALE,
        seed: 99,
        ..Default::default()
    };
    match Journal::resume(&path, JournalHeader::new(&other_seed)).err() {
        Some(JournalError::HeaderMismatch { field, .. }) => assert_eq!(field, "seed"),
        other => panic!("seed mismatch not rejected: {other:?}"),
    }
    // A matching header still resumes.
    assert!(Journal::resume(&path, header).is_ok());
    // External corruption: an undecodable record line is a typed error
    // naming the line, not a silent skip.
    let mut text = std::fs::read_to_string(&path).expect("read journal");
    text.push_str("{definitely not a record\n");
    std::fs::write(&path, text).expect("corrupt journal");
    match Journal::resume(&path, header).err() {
        Some(JournalError::Corrupt { line, .. }) => assert_eq!(line, 2),
        other => panic!("corruption not rejected: {other:?}"),
    }
    // A missing journal is not an error: resume starts fresh.
    let _ = std::fs::remove_file(&path);
    let j = Journal::resume(&path, header).expect("fresh journal");
    assert!(j.is_empty());
    let _ = std::fs::remove_file(&path);
}

#[test]
fn escalated_watchdog_cancels_overruns_as_typed_timeouts_without_retry() {
    let cells = subset();
    // A 1 ms deadline with zero grace: every attempt outlives it, and
    // under CancelAfterGrace the attempt's own deadline token trips
    // instead of the overrun only being recorded. Retries are granted but must not be
    // spent on a cancelled attempt (retrying a kill would loop).
    let policy = RunPolicy {
        max_retries: 2,
        soft_deadline_ms: Some(1),
        escalation: Escalation::CancelAfterGrace { grace_ms: 0 },
        ..RunPolicy::default()
    };
    let rep = run_cells_supervised(&TraceCache::new(), opts(), &cells, 2, &policy, None);
    assert!(
        !rep.failures().is_empty(),
        "a 1 ms deadline with zero grace must kill something"
    );
    for f in rep.failures() {
        assert!(
            matches!(f.cause, FailureCause::Timeout),
            "kill must surface as a typed timeout, got {:?}",
            f.cause
        );
        assert_eq!(f.attempt, 0, "a cancelled attempt must never be retried");
    }
    assert!(!rep.overruns.is_empty(), "the overrun is still recorded");
}

#[test]
fn salvage_recovers_a_torn_tail_but_not_interior_corruption() {
    let cells = subset();
    let path = tmp_path("salvage");
    let _ = std::fs::remove_file(&path);
    let header = JournalHeader::new(&opts());
    {
        let j = Journal::create(&path, header).expect("create journal");
        let rep = run_cells_supervised(
            &TraceCache::new(),
            opts(),
            &cells,
            2,
            &RunPolicy::fail_fast(),
            Some(&j),
        );
        assert_eq!(rep.completed(), cells.len());
    }
    let intact = std::fs::read_to_string(&path).expect("read journal");
    // A writer killed mid-append leaves half a record with no newline.
    let torn = format!("{intact}{{\"cell\":\"trfd4/Base\",\"digest\":\"ab");
    std::fs::write(&path, &torn).expect("tear journal");
    // Resume drops exactly the torn bytes, every intact record survives,
    // and the truncation is reported, not silent.
    let j = Journal::resume(&path, header).expect("salvage");
    let s = j.salvaged().expect("a truncation must be reported");
    assert_eq!(s.line, cells.len() + 2);
    assert_eq!(s.dropped_bytes, torn.len() - intact.len());
    assert_eq!(j.len(), cells.len(), "intact records must survive");
    drop(j);
    // The truncated journal was re-persisted: a plain resume now works
    // and replays every cell.
    let j = Journal::resume(&path, header).expect("resume after salvage");
    let rep = run_cells_supervised(
        &TraceCache::new(),
        opts(),
        &cells,
        2,
        &RunPolicy::fail_fast(),
        Some(&j),
    );
    assert_eq!(rep.completed(), cells.len());
    assert_eq!(
        rep.journal_hits,
        cells.len(),
        "salvaged records must replay"
    );
    // Interior corruption is not a torn tail; salvage must refuse to
    // guess and keep the typed error.
    let mut lines: Vec<&str> = intact.lines().collect();
    lines[1] = "{definitely not a record";
    let corrupted = format!("{}\n", lines.join("\n"));
    std::fs::write(&path, &corrupted).expect("corrupt journal");
    match Journal::resume(&path, header) {
        Err(JournalError::Corrupt { line, .. }) => assert_eq!(line, 2),
        other => panic!(
            "interior corruption must stay fatal under salvage: {:?}",
            other.map(|j| j.len())
        ),
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn an_unterminated_complete_record_survives_resume_and_later_appends_stay_on_their_own_line() {
    let path = tmp_path("unterminated");
    let _ = std::fs::remove_file(&path);
    let header = JournalHeader::new(&opts());
    let record = |digest: u64| JournalRecord {
        digest,
        key: format!("cell-{digest}"),
        attempt: 0,
        ms: 1.5,
        stats: SimStats {
            cpu_times: vec![digest],
            ..SimStats::default()
        },
    };
    {
        let j = Journal::create(&path, header).expect("create journal");
        j.append(record(1)).expect("append");
        j.append(record(2)).expect("append");
    }
    // A kill between a record's last byte and its newline.
    let full = std::fs::read_to_string(&path).expect("read journal");
    std::fs::write(&path, full.strip_suffix('\n').unwrap()).expect("drop the final newline");
    let j = Journal::resume(&path, header).expect("resume");
    assert!(
        j.salvaged().is_none(),
        "a complete record is not a torn tail"
    );
    assert_eq!(j.len(), 2, "the unterminated record must survive");
    assert_eq!(
        std::fs::read_to_string(&path).expect("read journal"),
        full,
        "resume must re-terminate the final record"
    );
    j.append(record(3)).expect("append after resume");
    drop(j);
    let text = std::fs::read_to_string(&path).expect("read journal");
    assert_eq!(
        text.lines().count(),
        4,
        "header plus one line per record:\n{text}"
    );
    let j = Journal::resume(&path, header).expect("second resume");
    assert!(j.salvaged().is_none());
    assert_eq!(j.len(), 3, "the second resume must see every record");
    for d in 1..=3 {
        assert_eq!(j.lookup(d), Some(record(d).stats), "record {d}");
    }
    let _ = std::fs::remove_file(&path);
}

/// Failure types cross thread boundaries inside the runner; keep them
/// `Send + Sync` so that stays true (compile-time check).
#[test]
fn failure_types_are_send_and_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<oscache_core::CellFailure>();
    assert_send_sync::<Journal>();
}

/// Stats with every counter distinct and every map and array non-empty:
/// two CPUs, so element separators and per-map key sorting both show.
#[allow(clippy::field_reassign_with_default)]
fn pinned_stats() -> SimStats {
    let cpu = |base: u64| {
        let split = |n: u64| ModeSplit {
            user: base + n,
            os: base + n + 100,
        };
        let mut c = CpuStats::default();
        c.exec_cycles = split(1);
        c.imiss_cycles = split(2);
        c.dread_cycles = split(3);
        c.dwrite_cycles = split(4);
        c.pref_cycles = split(5);
        c.sync_cycles = split(6);
        c.dreads = split(7);
        c.dwrites = split(8);
        c.l1d_read_misses = split(9);
        c.l1i_misses = split(10);
        c.idle_cycles = base + 11;
        c.os_miss_blockop = base + 12;
        c.os_miss_coherence = [21, 22, 23, 24, 25].map(|n| base + n);
        c.os_miss_other = base + 13;
        c.os_miss_by_site = vec![base + 31, 0, base + 32];
        c.displ_inside = base + 14;
        c.displ_outside = base + 15;
        c.reuse_inside = base + 16;
        c.reuse_outside = base + 17;
        c.blk_read_stall = base + 18;
        c.blk_write_stall = base + 19;
        c.blk_exec_cycles = base + 20;
        c.blk_displ_stall = base + 26;
        c.blk_src_lines = base + 27;
        c.blk_src_lines_cached = base + 28;
        c.blk_dst_lines = base + 29;
        c.blk_dst_l2_owned = base + 30;
        c.blk_dst_l2_shared = base + 33;
        c.blk_size_buckets = [41, 42, 43].map(|n| base + n);
        c.blk_ops = base + 34;
        c.prefetches_issued = base + 35;
        c.prefetch_full_hits = base + 36;
        c.prefetch_partial_hits = base + 37;
        c.os_miss_by_class[DataClass::UserStack as usize] = base + 51;
        c.os_miss_by_class[DataClass::BarrierVar as usize] = base + 52;
        c.lock_wait_cycles.add(9, base + 61);
        c.lock_wait_cycles.add(2, base + 62);
        c.conflict_pairs
            .add((DataClass::PageTable, DataClass::LockVar), base + 71);
        c.conflict_pairs
            .add((DataClass::LockVar, DataClass::RunQueue), base + 72);
        c
    };
    SimStats {
        cpus: vec![cpu(1000), cpu(2000)],
        bus: BusStats {
            read_lines: 81,
            read_exclusive: 82,
            invalidations: 83,
            write_backs: 84,
            line_writes: 85,
            update_words: 86,
            dma_transfers: 87,
            busy_cycles: u64::MAX,
        },
        cpu_times: vec![91, 92],
    }
}

/// The journal header line, pinned byte for byte.
const PINNED_HEADER: &str = concat!(
    r#"{"schema":1,"scale_bits":4587366580439587226,"scale":0.05,"seed":6073486,"#,
    r#""n_cpus":4}"#,
);

/// A journal record line, pinned byte for byte: full-precision `ms`, the
/// key escaped, every map as a key-sorted array.
const PINNED_RECORD: &str = concat!(
    r#"{"digest":16045690981116495207,"cell":"Shell/Base \"q\"\\é","attempt":2,"#,
    r#""ms":12.345678901234,"stats":{"cpus":[{"exec_cycles":[1001,1101],"#,
    r#""imiss_cycles":[1002,1102],"dread_cycles":[1003,1103],"dwrite_cycles":[1004,"#,
    r#"1104],"pref_cycles":[1005,1105],"sync_cycles":[1006,1106],"dreads":[1007,1107],"#,
    r#""dwrites":[1008,1108],"l1d_read_misses":[1009,1109],"l1i_misses":[1010,1110],"#,
    r#""idle_cycles":1011,"os_miss_blockop":1012,"os_miss_other":1013,"#,
    r#""displ_inside":1014,"displ_outside":1015,"reuse_inside":1016,"#,
    r#""reuse_outside":1017,"blk_read_stall":1018,"blk_write_stall":1019,"#,
    r#""blk_exec_cycles":1020,"blk_displ_stall":1026,"blk_src_lines":1027,"#,
    r#""blk_src_lines_cached":1028,"blk_dst_lines":1029,"blk_dst_l2_owned":1030,"#,
    r#""blk_dst_l2_shared":1033,"blk_ops":1034,"prefetches_issued":1035,"#,
    r#""prefetch_full_hits":1036,"prefetch_partial_hits":1037,"#,
    r#""os_miss_coherence":[1021,1022,1023,1024,1025],"blk_size_buckets":[1041,1042,"#,
    r#"1043],"os_miss_by_site":[1031,0,1032],"os_miss_by_class":[["BarrierVar",1052],"#,
    r#"["UserStack",1051]],"lock_wait_cycles":[[2,1062],[9,1061]],"#,
    r#""conflict_pairs":[["LockVar","RunQueue",1072],["PageTable","LockVar",1071]]},"#,
    r#"{"exec_cycles":[2001,2101],"imiss_cycles":[2002,2102],"dread_cycles":[2003,"#,
    r#"2103],"dwrite_cycles":[2004,2104],"pref_cycles":[2005,2105],"sync_cycles":[2006,"#,
    r#"2106],"dreads":[2007,2107],"dwrites":[2008,2108],"l1d_read_misses":[2009,2109],"#,
    r#""l1i_misses":[2010,2110],"idle_cycles":2011,"os_miss_blockop":2012,"#,
    r#""os_miss_other":2013,"displ_inside":2014,"displ_outside":2015,"#,
    r#""reuse_inside":2016,"reuse_outside":2017,"blk_read_stall":2018,"#,
    r#""blk_write_stall":2019,"blk_exec_cycles":2020,"blk_displ_stall":2026,"#,
    r#""blk_src_lines":2027,"blk_src_lines_cached":2028,"blk_dst_lines":2029,"#,
    r#""blk_dst_l2_owned":2030,"blk_dst_l2_shared":2033,"blk_ops":2034,"#,
    r#""prefetches_issued":2035,"prefetch_full_hits":2036,"prefetch_partial_hits":2037,"#,
    r#""os_miss_coherence":[2021,2022,2023,2024,2025],"blk_size_buckets":[2041,2042,"#,
    r#"2043],"os_miss_by_site":[2031,0,2032],"os_miss_by_class":[["BarrierVar",2052],"#,
    r#"["UserStack",2051]],"lock_wait_cycles":[[2,2062],[9,2061]],"#,
    r#""conflict_pairs":[["LockVar","RunQueue",2072],["PageTable","LockVar",2071]]}],"#,
    r#""bus":{"read_lines":81,"read_exclusive":82,"invalidations":83,"write_backs":84,"#,
    r#""line_writes":85,"update_words":86,"dma_transfers":87,"#,
    r#""busy_cycles":18446744073709551615},"cpu_times":[91,92]}}"#,
);

#[test]
fn journal_lines_are_pinned_byte_for_byte() {
    let path = tmp_path("pinned");
    let _ = std::fs::remove_file(&path);
    let header = JournalHeader::new(&BuildOptions {
        scale: 0.05,
        seed: 0x05cac8e,
        n_cpus: 4,
    });
    let journal = Journal::create(&path, header).expect("create");
    journal
        .append(JournalRecord {
            digest: 0xdead_beef_0123_4567,
            key: "Shell/Base \"q\"\\é".to_string(),
            attempt: 2,
            ms: 12.345_678_901_234,
            stats: pinned_stats(),
        })
        .expect("append");
    drop(journal);
    let text = std::fs::read_to_string(&path).expect("read journal");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines, [PINNED_HEADER, PINNED_RECORD]);
    // The parse direction: a journal holding exactly these bytes resumes
    // to the same stats.
    std::fs::write(&path, format!("{PINNED_HEADER}\n{PINNED_RECORD}\n")).expect("write");
    let resumed = Journal::resume(&path, header).expect("resume pinned journal");
    assert_eq!(resumed.len(), 1);
    assert_eq!(
        resumed.lookup(0xdead_beef_0123_4567),
        Some(pinned_stats()),
        "the pinned record must parse back to the stats it was written from"
    );
    let _ = std::fs::remove_file(&path);
}

/// Resumes a journal holding the pinned header and `record`.
fn resume_record(name: &str, record: &str) -> Result<Journal, JournalError> {
    let path = tmp_path(name);
    std::fs::write(&path, format!("{PINNED_HEADER}\n{record}\n")).expect("write");
    let header = JournalHeader::new(&BuildOptions {
        scale: 0.05,
        seed: 0x05cac8e,
        n_cpus: 4,
    });
    let resumed = Journal::resume(&path, header);
    let _ = std::fs::remove_file(&path);
    resumed
}

#[test]
fn count_map_entries_parse_in_any_order() {
    let reordered = PINNED_RECORD
        .replace(
            r#"[["BarrierVar",1052],["UserStack",1051]]"#,
            r#"[["UserStack",1051],["BarrierVar",1052]]"#,
        )
        .replace("[[2,1062],[9,1061]]", "[[9,1061],[2,1062]]")
        .replace(
            r#"[["LockVar","RunQueue",1072],["PageTable","LockVar",1071]]"#,
            r#"[["PageTable","LockVar",1071],["LockVar","RunQueue",1072]]"#,
        );
    assert_eq!(reordered.len(), PINNED_RECORD.len());
    assert_ne!(reordered, PINNED_RECORD);
    let resumed = resume_record("reordered", &reordered).expect("resume reordered record");
    assert_eq!(resumed.lookup(0xdead_beef_0123_4567), Some(pinned_stats()));
}

#[test]
fn duplicate_count_map_key_is_a_corrupt_line_naming_the_field() {
    for (field, entry, duplicate) in [
        (
            "os_miss_by_class",
            r#"["UserStack",1051]"#,
            r#"["BarrierVar",1051]"#,
        ),
        ("lock_wait_cycles", "[9,1061]", "[2,1061]"),
        (
            "conflict_pairs",
            r#"["PageTable","LockVar",1071]"#,
            r#"["LockVar","RunQueue",1071]"#,
        ),
    ] {
        assert!(PINNED_RECORD.contains(entry), "{field}");
        let record = PINNED_RECORD.replacen(entry, duplicate, 1);
        match resume_record(field, &record) {
            Err(JournalError::Corrupt { line: 2, msg }) => {
                assert!(
                    msg.contains("duplicate key") && msg.contains(field),
                    "{field}: {msg}"
                );
            }
            Err(e) => panic!("{field}: wrong error {e}"),
            Ok(_) => panic!("{field}: a duplicate key parsed"),
        }
    }
}

/// One CPU's stats whose lock 3 was entered with a wait of 0 (a waiter
/// released at its own clock), pinned byte for byte.
const PINNED_ZERO_WAIT: &str = concat!(
    r#"{"cpus":[{"exec_cycles":[0,0],"imiss_cycles":[0,0],"dread_cycles":[0,0],"#,
    r#""dwrite_cycles":[0,0],"pref_cycles":[0,0],"sync_cycles":[0,40],"dreads":[0,0],"#,
    r#""dwrites":[0,0],"l1d_read_misses":[0,0],"l1i_misses":[0,0],"idle_cycles":0,"#,
    r#""os_miss_blockop":0,"os_miss_other":0,"displ_inside":0,"displ_outside":0,"#,
    r#""reuse_inside":0,"reuse_outside":0,"blk_read_stall":0,"blk_write_stall":0,"#,
    r#""blk_exec_cycles":0,"blk_displ_stall":0,"blk_src_lines":0,"#,
    r#""blk_src_lines_cached":0,"blk_dst_lines":0,"blk_dst_l2_owned":0,"#,
    r#""blk_dst_l2_shared":0,"blk_ops":0,"prefetches_issued":0,"prefetch_full_hits":0,"#,
    r#""prefetch_partial_hits":0,"os_miss_coherence":[0,0,0,0,0],"#,
    r#""blk_size_buckets":[0,0,0],"os_miss_by_site":[],"os_miss_by_class":[],"#,
    r#""lock_wait_cycles":[[3,0],[7,40]],"conflict_pairs":[]}],"bus":{"read_lines":0,"#,
    r#""read_exclusive":0,"invalidations":0,"write_backs":0,"line_writes":0,"#,
    r#""update_words":0,"dma_transfers":0,"busy_cycles":0},"cpu_times":[40]}"#,
);

#[allow(clippy::field_reassign_with_default)]
fn zero_wait_stats() -> SimStats {
    let mut c = CpuStats::default();
    c.sync_cycles.os = 40;
    c.lock_wait_cycles.add(3, 0);
    c.lock_wait_cycles.add(7, 40);
    SimStats {
        cpus: vec![c],
        bus: BusStats::default(),
        cpu_times: vec![40],
    }
}

#[test]
fn zero_lock_wait_entry_is_written_and_read_back() {
    assert_eq!(stats_to_json(&zero_wait_stats()), PINNED_ZERO_WAIT);
    let back = stats_from_json(PINNED_ZERO_WAIT).expect("pinned line parses");
    assert_eq!(back, zero_wait_stats());
    assert_eq!(back.total().lock_wait_cycles.get(3), Some(0));
    assert_eq!(stats_to_json(&back), PINNED_ZERO_WAIT);
}
