//! The one-shot `repro` commands end to end: a closed stdout ends the
//! process quietly, and the dump → replay path (the paper's §2.1 monitor
//! dumps traces and simulates them later) agrees with the cached,
//! specialized `simulate` path on the same cell. A journaled run resumes
//! past a torn final record but not past a corrupt one.

use std::io::Write;
use std::process::{Command, Output, Stdio};

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

fn stdout_of(out: &Output) -> &str {
    std::str::from_utf8(&out.stdout).expect("utf8 stdout")
}

/// The `OS misses N` figure of a `replay` or `simulate` report.
fn os_misses(report: &str) -> u64 {
    let tail = report
        .split("OS misses ")
        .nth(1)
        .unwrap_or_else(|| panic!("no `OS misses` in {report:?}"));
    let digits: String = tail.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().expect("OS misses count")
}

/// `repro simulate ... | head -1` with the reader already gone: the
/// write fails with a broken pipe, which must end the process without a
/// panic message (and without the panic exit code 101, which the exit
/// table does not list).
#[test]
fn closed_stdout_ends_quietly() {
    let mut child = repro()
        .args(["simulate", "TRFD_4", "Base", "--scale", "0.02"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn repro");
    // Close the read end before repro prints anything.
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("wait for repro");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "repro panicked: {stderr}");
    assert_ne!(out.status.code(), Some(101), "panic exit: {stderr}");
}

/// A dumped trace replayed under the strict audit (generic loop plus the
/// fully-recorded profiling machine) reports the same OS misses as the
/// cached, specialized `simulate` run of the same cell.
#[test]
fn replayed_dump_agrees_with_simulate() {
    let path = std::env::temp_dir().join(format!("oscache-oneshot-{}.trace", std::process::id()));
    let path_str = path.to_str().expect("utf8 temp path");
    let dump = repro()
        .args(["--scale", "0.1", "dump", "TRFD_4", path_str])
        .output()
        .expect("run dump");
    assert!(dump.status.success(), "dump failed: {dump:?}");
    let replay = repro()
        .args(["replay", path_str, "BCPref"])
        .output()
        .expect("run replay");
    let _ = std::fs::remove_file(&path);
    assert!(replay.status.success(), "replay failed: {replay:?}");
    let simulate = repro()
        .args(["simulate", "TRFD_4", "BCPref", "--scale", "0.1"])
        .output()
        .expect("run simulate");
    assert!(simulate.status.success(), "simulate failed: {simulate:?}");
    assert_eq!(
        os_misses(stdout_of(&replay)),
        os_misses(stdout_of(&simulate)),
        "replay:\n{}\nsimulate:\n{}",
        stdout_of(&replay),
        stdout_of(&simulate)
    );
}

/// A dump declaring an absurd CPU count is a trace-validation error
/// (exit 3), rejected before anything is sized by it — not an allocation
/// abort.
#[test]
fn huge_cpu_count_is_a_trace_error() {
    let path = std::env::temp_dir().join(format!("oscache-cpus-{}.trace", std::process::id()));
    std::fs::write(&path, "oscache-trace 1\nworkload X\ncpus 999999999999\n").expect("write dump");
    let out = repro()
        .args(["replay", path.to_str().expect("utf8 temp path"), "Base"])
        .output()
        .expect("run replay");
    let _ = std::fs::remove_file(&path);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(3), "stderr: {stderr}");
    assert!(!stderr.contains("memory allocation"), "stderr: {stderr}");
}

/// A kill mid-append leaves a torn, unterminated final journal record. A
/// plain `--resume` drops it with a structured warning and prints exactly
/// what the uninterrupted run printed. A garbled line that does end in a
/// newline is corruption, not a torn tail, and stays a journal error
/// (exit 2).
#[test]
fn resume_drops_a_torn_journal_tail_but_not_a_terminated_garbled_line() {
    let path = std::env::temp_dir().join(format!("oscache-torn-{}.jsonl", std::process::id()));
    let journal = path.to_str().expect("utf8 temp path");
    let run = |extra: &[&str]| {
        repro()
            .args(["--scale", "0.05", "--journal", journal])
            .args(extra)
            .arg("table2")
            .output()
            .expect("run repro")
    };
    let first = run(&[]);
    assert!(first.status.success(), "first run failed: {first:?}");
    let append = |bytes: &[u8]| {
        std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .and_then(|mut f| f.write_all(bytes))
            .expect("append to journal");
    };
    append(b"{\"digest\":1");
    let resumed = run(&["--resume"]);
    let stderr = String::from_utf8_lossy(&resumed.stderr);
    assert_eq!(resumed.status.code(), Some(0), "stderr: {stderr}");
    assert_eq!(
        stdout_of(&resumed),
        stdout_of(&first),
        "a resumed run must print what the uninterrupted one did"
    );
    assert!(stderr.contains("class=journal-salvage"), "stderr: {stderr}");
    append(b"{\"digest\":1\n");
    let corrupt = run(&["--resume"]);
    let _ = std::fs::remove_file(&path);
    let stderr = String::from_utf8_lossy(&corrupt.stderr);
    assert_eq!(corrupt.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("journal corrupt"), "stderr: {stderr}");
}

/// A flag-only soft deadline records each overrun as one structured
/// warning: a class, the Debug-quoted cell key, and the message the CI
/// smoke greps for.
#[test]
fn a_soft_deadline_overrun_is_a_structured_warning() {
    let out = repro()
        .args(["--scale", "0.05", "--deadline-ms", "1", "table1"])
        .output()
        .expect("run repro");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "flag-only overruns fail nothing: {err}"
    );
    let overruns: Vec<&str> = err
        .lines()
        .filter(|l| l.contains("soft deadline"))
        .collect();
    assert_eq!(overruns.len(), 4, "one line per table1 cell:\n{err}");
    for line in overruns {
        assert!(
            line.starts_with("warning: class=deadline-overrun cell=\"")
                && line.contains("\" attempt=0 deadline_ms=1 elapsed_ms=")
                && line.ends_with(" msg=\"exceeded the soft deadline\""),
            "{line}"
        );
    }
}
