//! End-to-end tests for `repro serve` / `repro submit`: a real daemon on
//! a real Unix socket, driven by real client processes.
//!
//! Pins the service acceptance bar (DESIGN.md §14): a submitted report is
//! byte-identical to the one-shot CLI printing the same experiments,
//! concurrent clients share one trace build per workload, a SIGKILLed
//! daemon restarts onto its journal and replays instead of re-simulating,
//! SIGTERM drains gracefully, and the admission/unavailability exit codes
//! (7/8) are real.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Output, Stdio};
use std::time::{Duration, Instant};

const SCALE: &str = "0.02";
/// The experiments every test submits; table1+table2 share the same four
/// Base cells, so deduplication is visible in the daemon's counters.
const EXPERIMENTS: [&str; 2] = ["table1", "table2"];

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

fn tmp(name: &str, ext: &str) -> PathBuf {
    std::env::temp_dir().join(format!("oscache-cli-{}-{name}.{ext}", std::process::id()))
}

/// Starts a daemon on `socket` and waits until it is accepting. `global`
/// options go before `serve`, `extra` ones after it.
fn start_daemon(
    socket: &Path,
    journal: Option<&PathBuf>,
    global: &[&str],
    extra: &[&str],
) -> Child {
    let mut cmd = repro();
    cmd.args(["--scale", SCALE, "--jobs", "2"]);
    if let Some(j) = journal {
        cmd.args(["--journal", j.to_str().unwrap(), "--resume"]);
    }
    cmd.args(global);
    cmd.args(["serve", "--socket", socket.to_str().unwrap()]);
    cmd.args(extra);
    let child = cmd
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn daemon");
    let start = Instant::now();
    while !socket.exists() {
        assert!(
            start.elapsed() < Duration::from_secs(30),
            "daemon never bound its socket"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    child
}

/// SIGTERMs the daemon and returns its drained output.
fn stop_daemon(child: Child) -> Output {
    let ok = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .expect("send SIGTERM");
    assert!(ok.success(), "kill -TERM failed");
    child.wait_with_output().expect("daemon exit")
}

fn submit(socket: &Path, client: &str, experiments: &[&str]) -> Output {
    repro()
        .args([
            "submit",
            "--socket",
            socket.to_str().unwrap(),
            "--client",
            client,
        ])
        .args(experiments)
        .output()
        .expect("run submit")
}

fn stdout_of(out: &Output) -> &str {
    std::str::from_utf8(&out.stdout).expect("utf8 stdout")
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn concurrent_submits_match_the_one_shot_cli_and_share_trace_builds() {
    // The byte-level reference: the one-shot CLI rendering the same
    // experiments in the same order.
    let local = repro()
        .args(["--scale", SCALE, "--jobs", "2"])
        .args(EXPERIMENTS)
        .output()
        .expect("run local reference");
    assert!(local.status.success(), "{}", stderr_of(&local));
    let reference = stdout_of(&local);
    assert!(!reference.is_empty());

    let socket = tmp("concurrent", "sock");
    let daemon = start_daemon(&socket, None, &[], &[]);
    // Three clients at once.
    let outs: Vec<Output> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..3)
            .map(|i| {
                let socket = &socket;
                scope.spawn(move || submit(socket, &format!("client-{i}"), &EXPERIMENTS))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for out in &outs {
        assert!(out.status.success(), "{}", stderr_of(out));
        assert_eq!(
            stdout_of(out),
            reference,
            "a submitted report must be byte-identical to the local run"
        );
    }
    let drained = stop_daemon(daemon);
    assert!(drained.status.success());
    let log = stderr_of(&drained);
    // Dedup at the process level: three concurrent requests, four
    // workloads, four trace builds.
    assert!(
        log.contains("4 trace builds"),
        "concurrent requests must share trace builds:\n{log}"
    );
    assert!(log.contains("serve: drained"), "no drain banner:\n{log}");
}

#[test]
fn a_sigkilled_daemon_restarts_onto_its_journal_and_replays() {
    let socket = tmp("kill9", "sock");
    let journal = tmp("kill9", "jsonl");
    let _ = std::fs::remove_file(&journal);

    let daemon = start_daemon(&socket, Some(&journal), &[], &[]);
    let first = submit(&socket, "before-crash", &EXPERIMENTS);
    assert!(first.status.success(), "{}", stderr_of(&first));
    let reference = stdout_of(&first).to_string();
    // kill -9: no drain, no goodbye — the journal is all that survives.
    let mut daemon = daemon;
    daemon.kill().expect("SIGKILL daemon");
    let _ = daemon.wait();
    // The stale socket file survives a SIGKILL; drop it so the readiness
    // probe below sees the restarted daemon's bind, not the corpse.
    let _ = std::fs::remove_file(&socket);

    let daemon = start_daemon(&socket, Some(&journal), &[], &[]);
    let second = submit(&socket, "after-crash", &EXPERIMENTS);
    assert!(second.status.success(), "{}", stderr_of(&second));
    assert_eq!(
        stdout_of(&second),
        reference,
        "a journal replay must be byte-identical to the original run"
    );
    let err = stderr_of(&second);
    assert!(
        err.contains("4 of 4 cells replayed from the daemon's journal"),
        "restart must replay, not re-simulate:\n{err}"
    );
    let drained = stop_daemon(daemon);
    assert!(drained.status.success());
    let _ = std::fs::remove_file(&journal);
}

#[test]
fn overload_and_unavailability_have_their_own_exit_codes() {
    // Exit 8: no daemon at that socket.
    let missing = tmp("missing", "sock");
    let out = submit(&missing, "nobody", &["table1"]);
    assert_eq!(out.status.code(), Some(8), "{}", stderr_of(&out));
    assert!(stderr_of(&out).contains("cannot reach daemon"));

    // Exit 7: the admission queue cannot hold even one request.
    let socket = tmp("overload", "sock");
    let daemon = start_daemon(&socket, None, &[], &["--queue-limit", "1"]);
    let out = submit(&socket, "too-big", &["table1"]);
    assert_eq!(
        out.status.code(),
        Some(7),
        "a 4-cell plan must overflow a 1-cell queue: {}",
        stderr_of(&out)
    );
    assert!(stderr_of(&out).contains("overloaded"));
    let drained = stop_daemon(daemon);
    assert!(drained.status.success());
}

#[test]
fn an_unreachable_socket_path_is_quoted_on_stderr() {
    let socket =
        std::env::temp_dir().join(format!("oscache-cli-{}-quote\"d.sock", std::process::id()));
    let out = submit(&socket, "nobody", &["table1"]);
    assert_eq!(out.status.code(), Some(8), "{}", stderr_of(&out));
    let err = stderr_of(&out);
    let line = err
        .lines()
        .find(|l| l.starts_with("error: class=service msg=\""))
        .unwrap_or_else(|| panic!("no class=service line:\n{err}"));
    assert!(
        line.contains("quote\\\"d.sock"),
        "the quote in the path must be escaped: {line}"
    );
}

#[test]
fn an_escalated_deadline_reaches_submit_as_a_typed_timeout() {
    // Every cell outlives a 1 ms soft deadline with zero grace, so each
    // attempt dies as a timeout; the client prints the same structured
    // failure line the one-shot CLI does.
    let socket = tmp("deadline", "sock");
    let escalate = [
        "--deadline-ms",
        "1",
        "--deadline-action",
        "cancel",
        "--deadline-grace-ms",
        "0",
    ];
    let daemon = start_daemon(&socket, None, &escalate, &[]);
    let out = submit(&socket, "hurried", &["table1"]);
    let err = stderr_of(&out);
    assert_eq!(
        out.status.code(),
        Some(6),
        "a partial request exits 6: {err}"
    );
    let failures: Vec<&str> = err
        .lines()
        .filter(|l| l.starts_with("error: class=cell-failure cell=\""))
        .collect();
    assert_eq!(failures.len(), 4, "one line per table1 cell:\n{err}");
    for line in failures {
        assert!(
            line.ends_with("\" attempt=0 cause=timeout msg=\"deadline exceeded\""),
            "{line}"
        );
    }
    let drained = stop_daemon(daemon);
    assert!(drained.status.success());
    let log = stderr_of(&drained);
    assert!(
        log.contains("4 deadline overruns"),
        "the drain summary counts overruns:\n{log}"
    );
}

/// Sends one request line on a fresh connection and returns the reply line.
fn request(socket: &Path, line: &str) -> String {
    let mut conn = UnixStream::connect(socket).expect("connect to daemon");
    conn.write_all(line.as_bytes()).expect("send request");
    conn.write_all(b"\n").expect("send newline");
    let mut reply = String::new();
    BufReader::new(conn)
        .read_line(&mut reply)
        .expect("read reply");
    reply
}

#[test]
fn a_deeply_nested_request_gets_an_error_and_the_daemon_keeps_serving() {
    let socket = tmp("nesting", "sock");
    let daemon = start_daemon(&socket, None, &[], &[]);
    let reply = request(&socket, &"[".repeat(200_000));
    assert!(
        reply.contains("\"status\":\"error\"") && reply.contains("nesting"),
        "the nesting line must get an error reply: {reply:?}"
    );
    let reply = request(&socket, r#"{"op":"stats"}"#);
    assert!(
        reply.contains("\"submitted\""),
        "the daemon must answer the next request: {reply:?}"
    );
    let drained = stop_daemon(daemon);
    assert!(drained.status.success(), "{}", stderr_of(&drained));
}

/// A client that never sends a newline cannot grow the daemon's memory
/// without bound: past the request-line cap it gets an error reply and
/// its connection closes, and the daemon keeps serving new connections.
#[test]
fn an_endless_request_line_gets_an_error_and_the_daemon_keeps_serving() {
    let socket = tmp("endless", "sock");
    let daemon = start_daemon(&socket, None, &[], &[]);
    let mut conn = UnixStream::connect(&socket).expect("connect to daemon");
    conn.set_read_timeout(Some(Duration::from_secs(20)))
        .expect("set read timeout");
    // The daemon may close the connection before it has read all of it.
    let _ = conn.write_all(&vec![b'x'; 2 << 20]);
    let mut reply = String::new();
    let _ = BufReader::new(&conn).read_line(&mut reply);
    assert!(
        reply.contains("\"status\":\"error\""),
        "an over-long request line must get an error reply: {reply:?}"
    );
    let reply = request(&socket, r#"{"op":"stats"}"#);
    assert!(
        reply.contains("\"submitted\""),
        "the daemon must answer the next request: {reply:?}"
    );
    let drained = stop_daemon(daemon);
    assert!(drained.status.success(), "{}", stderr_of(&drained));
}
