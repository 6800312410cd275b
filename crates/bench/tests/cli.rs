//! The `figures` binary as a subprocess: what it does when its stdout
//! goes away, and how it treats a malformed `XPC_BENCH_THREADS`.

use std::process::{Command, Output, Stdio};

fn figures() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_figures"));
    cmd.env_remove("XPC_BENCH_THREADS");
    cmd
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn a_closed_stdout_ends_the_run_quietly() {
    // `figures all | head -3`: the reader closes the pipe before the
    // first report is written (table1 runs the emulator first).
    let mut child = figures()
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
fn a_malformed_thread_variable_is_refused_like_the_flag() {
    for bad in ["four", "0", ""] {
        let out = figures()
            .env("XPC_BENCH_THREADS", bad)
            .arg("table3")
            .output()
            .expect("run figures");
        assert_eq!(out.status.code(), Some(2), "XPC_BENCH_THREADS={bad:?}");
        assert!(out.stdout.is_empty(), "refused before the first experiment");
        assert_eq!(
            stderr(&out),
            format!("figures: XPC_BENCH_THREADS wants a positive integer, got '{bad}'\n")
        );
    }
    let flag = figures()
        .args(["--threads", "four", "table3"])
        .output()
        .expect("run figures");
    assert_eq!(flag.status.code(), Some(2));
    assert_eq!(
        stderr(&flag),
        "figures: --threads wants a positive integer, got 'four'\n"
    );
}

#[test]
fn a_well_formed_thread_variable_is_accepted() {
    let out = figures()
        .env("XPC_BENCH_THREADS", " 2 ")
        .arg("table3")
        .output()
        .expect("run figures");
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    assert!(String::from_utf8_lossy(&out.stdout).starts_with("== Table 3"));
}
