//! Resident-service guarantees (DESIGN.md §14): concurrent clients get
//! reports byte-identical to the serial CLI render, deduplication keeps
//! trace builds at the distinct-workload count, deadlines cancel
//! cooperatively as typed timeouts without poisoning later requests,
//! admission is bounded, and the drain path finalizes every admitted
//! request.

use oscache_core::service::{
    handle_connection, parse_reply, parse_request, reply_line, run_request_line, Admission,
    CellProgress, Event, Reply, RequestReport, RunRequest, Server, ServiceConfig, ServiceStats,
    WireRequest,
};
use oscache_core::{render_experiment, Experiment, Journal, JournalHeader, Repro, RunPolicy};
use oscache_workloads::BuildOptions;
use std::path::PathBuf;
use std::sync::atomic::AtomicBool;
use std::time::{Duration, Instant};

const SCALE: f64 = 0.02;

/// Table1/Table2 share the same four Base cells: two experiments whose
/// work fully overlaps, so deduplication is observable.
const EXPERIMENTS: [Experiment; 2] = [Experiment::Table1, Experiment::Table2];

fn config(jobs: usize) -> ServiceConfig {
    ServiceConfig {
        scale: SCALE,
        jobs,
        queue_limit: 256,
        policy: RunPolicy::fail_fast(),
        mem_budget_mb: None,
        fault_plan: None,
    }
}

fn request(client: &str, deadline_ms: Option<u64>) -> RunRequest {
    RunRequest {
        client: client.to_string(),
        experiments: EXPERIMENTS.to_vec(),
        deadline_ms,
    }
}

/// The serial reference: the exact bytes the CLI prints for these
/// experiments (one `Repro`, no service involved).
fn reference() -> String {
    let mut r = Repro::new(SCALE);
    EXPERIMENTS
        .iter()
        .map(|&e| render_experiment(&mut r, e))
        .collect()
}

/// Drains one admitted request's event stream to its terminal report.
fn collect(adm: Admission) -> RequestReport {
    match adm {
        Admission::Accepted { events, .. } => {
            for ev in events {
                match ev {
                    Event::Cell(_) => {}
                    Event::Done(rep) => return rep,
                }
            }
            panic!("event stream ended without a Done");
        }
        Admission::Overloaded { queued, limit } => {
            panic!("unexpected overload ({queued}/{limit})")
        }
        Admission::ShuttingDown => panic!("unexpected shutting-down"),
    }
}

fn tmp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "oscache-service-{}-{name}.jsonl",
        std::process::id()
    ))
}

#[test]
fn concurrent_clients_get_byte_identical_reports_and_work_is_deduplicated() {
    let reference = reference();
    let path = tmp_path("dedup");
    let _ = std::fs::remove_file(&path);
    let opts = BuildOptions {
        scale: SCALE,
        ..Default::default()
    };
    let journal =
        Journal::create(&path, JournalHeader::new(&opts)).expect("create service journal");
    let server = Server::start(config(4), Some(journal));
    // Three clients, same experiments, all in flight at once.
    let reports: Vec<RequestReport> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..3)
            .map(|i| {
                let server = &server;
                scope.spawn(move || collect(server.submit(request(&format!("client-{i}"), None))))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for rep in &reports {
        assert!(rep.complete(), "request {} incomplete", rep.id);
        assert_eq!(rep.total, 4, "table1+table2 share the same four cells");
        assert_eq!(rep.report, reference, "request {} diverged", rep.id);
        assert!(rep.skipped.is_empty() && rep.failures.is_empty());
    }
    // Dedup proof #1: three concurrent requests built each workload's
    // trace exactly once (the cache shares across requests).
    let st = server.stats();
    assert_eq!(st.trace_builds, 4, "one trace build per workload");
    assert_eq!(st.base_traces, 4);
    assert_eq!(st.accepted, 3);
    assert_eq!(st.cells_completed, 12, "3 requests x 4 cells");
    assert_eq!(st.cells_failed, 0);
    // Dedup proof #2: a fourth request replays every cell from the
    // journal — zero new simulation — and still matches the reference.
    let rep = collect(server.submit(request("latecomer", None)));
    assert_eq!(rep.report, reference);
    assert_eq!(rep.journal_hits, 4, "all cells must replay from journal");
    server.stop();
    assert!(server.take_journal_errors().is_empty());
    let _ = std::fs::remove_file(&path);
}

#[test]
fn deadline_cancels_as_typed_timeouts_and_later_requests_are_unpoisoned() {
    let server = Server::start(config(2), None);
    // An already-expired deadline: the monitor trips the request's token
    // before (or just after) the first cells dispatch.
    let rep = collect(server.submit(request("hurried", Some(0))));
    assert!(rep.deadline_exceeded, "deadline must be recorded");
    assert!(!rep.complete());
    assert!(rep.failed >= 1, "an expired deadline must fail cells");
    assert_eq!(rep.completed + rep.failed + rep.unstarted, rep.total);
    for f in &rep.failures {
        assert!(f.ends_with(": timeout"), "untyped failure: {f}");
    }
    // Cancellation must not poison shared state: the same experiments
    // then complete byte-identically to the serial reference.
    let rep = collect(server.submit(request("patient", None)));
    assert!(rep.complete(), "post-cancellation request must complete");
    assert_eq!(rep.report, reference());
    server.stop();
}

#[test]
fn admission_is_bounded_and_draining_rejects_new_work() {
    let server = Server::start(
        ServiceConfig {
            queue_limit: 1,
            ..config(1)
        },
        None,
    );
    match server.submit(request("big", None)) {
        Admission::Overloaded { queued, limit } => {
            assert_eq!(limit, 1);
            assert_eq!(queued, 0);
        }
        _ => panic!("a 4-cell plan must overflow a 1-cell queue"),
    }
    assert_eq!(server.stats().rejected_overloaded, 1);
    server.shutdown();
    assert!(server.stats().draining);
    match server.submit(request("late", None)) {
        Admission::ShuttingDown => {}
        _ => panic!("a draining server must reject new work"),
    }
    assert_eq!(server.stats().rejected_shutdown, 1);
    server.stop();
}

#[test]
fn drain_finalizes_every_admitted_request_without_failing_cells() {
    let server = Server::start(config(1), None);
    let adm = server.submit(request("draining", None));
    server.shutdown();
    let rep = collect(adm);
    // Drain never *fails* a cell: whatever was in flight finished, the
    // rest never started. A request that had not started at all reports
    // `shutdown` (the wire `shutting-down` reply).
    assert_eq!(
        rep.failed, 0,
        "drain must not fail cells: {:?}",
        rep.failures
    );
    assert_eq!(rep.completed + rep.unstarted, rep.total);
    if rep.shutdown {
        assert_eq!(rep.completed, 0);
    }
    assert_eq!(server.stats().active_requests, 0);
    server.stop();
}

#[test]
fn a_vanished_client_cancels_its_request_and_stop_does_not_hang() {
    let server = Server::start(config(2), None);
    let adm = server.submit(request("ghost", None));
    match adm {
        Admission::Accepted { events, .. } => drop(events), // client dies
        _ => panic!("expected admission"),
    }
    // The orphaned request is detected on its next completed cell and
    // cancelled; stop() must still drain cleanly.
    server.stop();
    assert_eq!(server.stats().active_requests, 0);
}

#[test]
fn wire_protocol_round_trips_requests_and_replies() {
    // Request line: client side -> server side.
    let req = RunRequest {
        client: "week\"ly\n".to_string(),
        experiments: vec![Experiment::Table1, Experiment::Fig6],
        deadline_ms: Some(1500),
    };
    match parse_request(&run_request_line(&req)).expect("round trip") {
        WireRequest::Run(r) => {
            assert_eq!(r.client, req.client);
            assert_eq!(r.experiments, req.experiments);
            assert_eq!(r.deadline_ms, Some(1500));
        }
        _ => panic!("expected a run request"),
    }
    // `all` expands in paper order; malformed lines are typed errors.
    match parse_request(r#"{"op":"run","experiments":["all"]}"#).unwrap() {
        WireRequest::Run(r) => {
            assert_eq!(r.experiments.len(), Experiment::all().len());
            assert_eq!(r.client, "anon");
        }
        _ => panic!("expected a run request"),
    }
    assert!(parse_request(r#"{"op":"run","experiments":[]}"#).is_err());
    assert!(parse_request(r#"{"op":"run","experiments":["fig99"]}"#).is_err());
    assert!(parse_request(r#"{"op":"dance"}"#).is_err());
    assert!(matches!(
        parse_request(r#"{"op":"stats"}"#).unwrap(),
        WireRequest::Stats
    ));
    assert!(matches!(
        parse_request(r#"{"op":"shutdown"}"#).unwrap(),
        WireRequest::Shutdown
    ));
    // Done reply: the report's exact bytes (newlines, quotes, unicode)
    // must survive the wire.
    let rep = RequestReport {
        id: 7,
        total: 4,
        completed: 3,
        failed: 1,
        unstarted: 0,
        journal_hits: 2,
        deadline_exceeded: true,
        shutdown: false,
        report: "Table 1 — \"quoted\"\n\tline two\n".to_string(),
        skipped: vec!["fig6".to_string()],
        failures: vec!["trfd4/Base: timeout".to_string()],
    };
    match parse_reply(&reply_line(&Reply::Done(rep.clone()))).expect("done round trip") {
        Reply::Done(r) => {
            assert_eq!(r.report, rep.report);
            assert_eq!(r.skipped, rep.skipped);
            assert_eq!(r.failures, rep.failures);
            assert_eq!(
                (r.id, r.total, r.completed, r.failed, r.journal_hits),
                (7, 4, 3, 1, 2)
            );
            assert!(r.deadline_exceeded && !r.shutdown);
        }
        _ => panic!("expected done"),
    }
    // Cell progress and stats replies round-trip too.
    let cell = CellProgress {
        index: 2,
        total: 4,
        key: "shell/Blk_Dma".to_string(),
        ok: true,
        ms: 12.5,
        journaled: true,
    };
    match parse_reply(&reply_line(&Reply::Cell(cell.clone()))).unwrap() {
        Reply::Cell(c) => {
            assert_eq!((c.index, c.total), (2, 4));
            assert_eq!(c.key, cell.key);
            assert!(c.ok && c.journaled);
        }
        _ => panic!("expected cell"),
    }
    let stats = ServiceStats {
        submitted: 9,
        accepted: 8,
        rejected_overloaded: 1,
        finished: 8,
        cells_completed: 40,
        journal_replays: 12,
        trace_builds: 4,
        base_traces: 4,
        draining: true,
        peak_rss_mb: 321.5,
        spilled_mb: 87.3,
        ..Default::default()
    };
    match parse_reply(&reply_line(&Reply::Stats(stats.clone()))).unwrap() {
        Reply::Stats(s) => {
            assert_eq!(s.submitted, 9);
            assert_eq!(s.journal_replays, 12);
            assert_eq!(s.trace_builds, 4);
            assert!(s.draining);
            assert_eq!(s.peak_rss_mb, 321.5);
            assert_eq!(s.spilled_mb, 87.3);
        }
        _ => panic!("expected stats"),
    }
    match parse_reply(&reply_line(&Reply::Rejected {
        status: "overloaded".to_string(),
    }))
    .unwrap()
    {
        Reply::Rejected { status } => assert_eq!(status, "overloaded"),
        _ => panic!("expected rejection"),
    }
}

/// A server whose journal already holds every cell of [`EXPERIMENTS`]
/// (one request ran them), plus the journal's path for cleanup.
fn journaled_server(name: &str, jobs: usize) -> (Server, PathBuf) {
    let path = tmp_path(name);
    let _ = std::fs::remove_file(&path);
    let opts = BuildOptions {
        scale: SCALE,
        ..Default::default()
    };
    let journal = Journal::create(&path, JournalHeader::new(&opts)).expect("create journal");
    let server = Server::start(config(jobs), Some(journal));
    let rep = collect(server.submit(request("seeder", None)));
    assert!(rep.complete() && rep.journal_hits == 0);
    (server, path)
}

/// Every event already waiting on an admitted request's stream, without
/// blocking.
fn waiting(adm: &Admission) -> Vec<Event> {
    match adm {
        Admission::Accepted { events, .. } => events.try_iter().collect(),
        _ => panic!("expected admission"),
    }
}

#[test]
fn a_journaled_request_is_answered_at_admission_while_the_worker_is_busy() {
    let (server, path) = journaled_server("admit-busy", 1);
    // An uncached sweep occupies the one worker and queues the rest.
    let sweep = server.submit(RunRequest {
        client: "sweeper".to_string(),
        experiments: vec![Experiment::Fig6],
        deadline_ms: None,
    });
    assert!(matches!(sweep, Admission::Accepted { .. }));
    let before = server.stats();
    // The journaled request needs no worker: its whole event stream is
    // waiting when `submit` returns.
    let adm = server.submit(request("reader", None));
    let events = waiting(&adm);
    assert_eq!(events.len(), 5, "4 cell events and the Done");
    let Some(Event::Done(rep)) = events.last() else {
        panic!("the last waiting event must be Done");
    };
    assert!(rep.complete());
    assert_eq!(rep.journal_hits, 4);
    assert_eq!(rep.report, reference());
    let st = server.stats();
    assert!(st.queued_cells > 0, "the sweep is still queued");
    assert_eq!(st.journal_replays - before.journal_replays, 4);
    drop(sweep);
    server.stop();
    let _ = std::fs::remove_file(&path);
}

#[test]
fn a_partially_journaled_request_dispatches_only_the_rest() {
    let (server, path) = journaled_server("admit-partial", 2);
    // Table 4 needs the four journaled Base cells and four Base+Deferred
    // cells nobody ran yet.
    let adm = server.submit(RunRequest {
        client: "partial".to_string(),
        experiments: vec![Experiment::Table4],
        deadline_ms: None,
    });
    let Admission::Accepted { total, events, .. } = adm else {
        panic!("expected admission");
    };
    assert_eq!(total, 8);
    let mut cells = Vec::new();
    let rep = loop {
        match events.recv().expect("stream ends with Done") {
            Event::Cell(p) => cells.push(p),
            Event::Done(rep) => break rep,
        }
    };
    assert_eq!(cells.len(), 8, "one progress event per cell");
    assert!(
        cells[..4].iter().all(|p| p.journaled && p.ok),
        "journaled cells are answered first, at admission"
    );
    assert!(cells[4..].iter().all(|p| !p.journaled && p.ok));
    assert!(rep.complete());
    assert_eq!(rep.journal_hits, 4, "exactly the pre-journaled cells");
    let mut r = Repro::new(SCALE);
    assert_eq!(rep.report, render_experiment(&mut r, Experiment::Table4));
    server.stop();
    let _ = std::fs::remove_file(&path);
}

#[test]
fn a_draining_daemon_rejects_even_a_fully_journaled_request() {
    let (server, path) = journaled_server("admit-drain", 1);
    server.shutdown();
    assert!(matches!(
        server.submit(request("late", None)),
        Admission::ShuttingDown
    ));
    assert_eq!(server.stats().rejected_shutdown, 1);
    server.stop();
    let _ = std::fs::remove_file(&path);
}

#[test]
fn without_a_journal_simulated_results_answer_at_admission() {
    let server = Server::start(config(2), None);
    assert!(collect(server.submit(request("first", None))).complete());
    let adm = server.submit(request("second", None));
    let events = waiting(&adm);
    let Some(Event::Done(rep)) = events.last() else {
        panic!("a request the results cache answers finalizes at admission");
    };
    assert!(rep.complete());
    assert_eq!(rep.journal_hits, 0, "no journal, no journal hits");
    assert_eq!(rep.report, reference());
    assert_eq!(server.stats().cells_completed, 8);
    server.stop();
}

/// How long past its deadline a request may take to fail: the deadline
/// monitor's wake-up plus one poll of the cancel token by each cell.
const POLL_GRACE: Duration = Duration::from_millis(500);

#[test]
fn a_duplicate_cell_waiting_on_another_request_still_meets_its_deadline() {
    // Five workers: the slow request's four cells take four of them, and
    // the hurried request's first cell, the duplicate of one of those,
    // takes the fifth and waits on that in-flight result. The scale keeps
    // those cells running for several times the deadline in either build
    // profile.
    let scale = if cfg!(debug_assertions) { 0.2 } else { 1.0 };
    let server = Server::start(ServiceConfig { scale, ..config(5) }, None);
    let slow = server.submit(request("slow", None));
    while server.stats().queued_cells > 0 {
        std::thread::sleep(Duration::from_millis(1));
    }
    // Let the dispatched cells claim their fingerprints.
    std::thread::sleep(Duration::from_millis(20));
    let deadline = Duration::from_millis(100);
    let submitted = Instant::now();
    let rep = collect(server.submit(request("hurried", Some(deadline.as_millis() as u64))));
    let answered = submitted.elapsed();
    assert!(rep.deadline_exceeded, "deadline must be recorded");
    assert_eq!(rep.completed, 0, "the duplicate outwaited its deadline");
    assert_eq!(rep.failed, rep.total);
    for f in &rep.failures {
        assert!(f.ends_with(": timeout"), "untyped failure: {f}");
    }
    assert!(
        answered < deadline + POLL_GRACE,
        "a waiting duplicate answered {answered:?} after submission"
    );
    assert!(
        collect(slow).complete(),
        "the awaited request must complete"
    );
    server.stop();
}

/// An in-memory connection: one request line in, every `write` counted.
struct CountingStream {
    input: std::io::Cursor<Vec<u8>>,
    output: Vec<u8>,
    writes: usize,
}

impl std::io::Read for CountingStream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.input.read(buf)
    }
}

impl std::io::Write for CountingStream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.writes += 1;
        self.output.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn a_journaled_request_is_answered_in_one_write_batch() {
    let (server, path) = journaled_server("admit-writes", 1);
    let mut stream = CountingStream {
        input: std::io::Cursor::new((run_request_line(&request("wire", None)) + "\n").into_bytes()),
        output: Vec::new(),
        writes: 0,
    };
    handle_connection(&server, &mut stream, &AtomicBool::new(false));
    assert!(stream.writes <= 2, "{} writes", stream.writes);
    let text = String::from_utf8(stream.output).expect("utf-8 replies");
    let replies: Vec<Reply> = text
        .lines()
        .map(|l| parse_reply(l).expect("reply parses"))
        .collect();
    assert_eq!(replies.len(), 6, "accepted, 4 cells, done");
    assert!(matches!(replies[0], Reply::Accepted { total: 4, .. }));
    match &replies[5] {
        Reply::Done(rep) => {
            assert_eq!(rep.journal_hits, 4);
            assert_eq!(rep.report, reference());
        }
        _ => panic!("expected done last"),
    }
    server.stop();
    let _ = std::fs::remove_file(&path);
}

#[test]
fn a_half_megabyte_request_string_parses_in_linear_time() {
    let client = "é".repeat(256 * 1024); // 512 KiB of two-byte scalars
    let line = run_request_line(&RunRequest {
        client: client.clone(),
        experiments: vec![Experiment::Table1],
        deadline_ms: None,
    });
    let t0 = std::time::Instant::now();
    let parsed = parse_request(&line).expect("parses");
    let elapsed = t0.elapsed();
    assert!(
        elapsed < std::time::Duration::from_millis(500),
        "parse took {elapsed:?}"
    );
    match parsed {
        WireRequest::Run(r) => assert_eq!(r.client, client),
        _ => panic!("expected a run request"),
    }
}

#[test]
fn multibyte_text_and_escapes_survive_the_wire() {
    let text = "Ω≈ç√ 漢字 😀 \"q\" \\b\\ \t tab \u{1} ctl\nnext\r\n";
    let rep = RequestReport {
        id: 1,
        total: 1,
        completed: 1,
        report: text.to_string(),
        skipped: vec![format!("{text}/skipped")],
        failures: vec!["Ünïcødé/Base: timeout".to_string()],
        ..Default::default()
    };
    match parse_reply(&reply_line(&Reply::Done(rep.clone()))).expect("done parses") {
        Reply::Done(r) => {
            assert_eq!(r.report, rep.report);
            assert_eq!(r.skipped, rep.skipped);
            assert_eq!(r.failures, rep.failures);
        }
        _ => panic!("expected done"),
    }
    match parse_reply(&reply_line(&Reply::Error(text.to_string()))).expect("error parses") {
        Reply::Error(msg) => assert_eq!(msg, text),
        _ => panic!("expected error"),
    }
}
