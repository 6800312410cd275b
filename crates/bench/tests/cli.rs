//! The `figures` binary as a subprocess: what it does when its stdout
//! goes away, and how it treats arguments it does not know.

use std::process::{Command, Output, Stdio};

fn figures(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(args)
        .output()
        .expect("run figures")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn a_closed_stdout_ends_the_run_quietly() {
    // `figures all | head -3`: the reader closes the pipe before the
    // first report is written (table1 runs the emulator first).
    let mut child = Command::new(env!("CARGO_BIN_EXE_figures"))
        .arg("table1")
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn figures");
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("wait for figures");
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    assert_eq!(stderr(&out), "");
}

#[test]
fn a_malformed_thread_count_is_refused() {
    for bad in ["four", "0", ""] {
        let out = figures(&["--threads", bad, "table3"]);
        assert_eq!(out.status.code(), Some(2), "--threads {bad:?}");
        assert!(out.stdout.is_empty(), "refused before the first experiment");
        assert_eq!(
            stderr(&out),
            format!("figures: --threads wants a positive integer, got '{bad}'\n")
        );
    }
}

#[test]
fn a_well_formed_thread_count_is_accepted() {
    let out = figures(&["--threads=2", "table3"]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    assert!(String::from_utf8_lossy(&out.stdout).starts_with("== Table 3"));
}

#[test]
fn every_argument_is_checked_before_the_first_experiment() {
    let flag = figures(&["table3", "--jsn", "all"]);
    assert_eq!(flag.status.code(), Some(2), "stderr: {}", stderr(&flag));
    assert!(flag.stdout.is_empty(), "an unknown flag runs nothing");
    assert_eq!(stderr(&flag), "figures: unknown flag '--jsn'\n");

    let key = figures(&["table3", "tabel3"]);
    assert_eq!(key.status.code(), Some(1), "stderr: {}", stderr(&key));
    assert!(key.stdout.is_empty(), "an unknown key runs nothing");
    assert!(
        stderr(&key).starts_with("unknown experiment 'tabel3' (did you mean 'table3'?)"),
        "stderr: {}",
        stderr(&key)
    );
}
