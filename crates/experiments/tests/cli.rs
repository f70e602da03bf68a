//! Exit statuses of the `repro` and `autobal-monitor` binaries, driven
//! as real subprocesses.

use autobal_metrics::{names, sample, MetricsHub};
use std::path::PathBuf;
use std::process::{Command, Output};

fn scratch(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name)
}

/// Runs `cmd` with a stdout pipe whose read end is already closed, so
/// the first write fails.
fn with_closed_stdout(mut cmd: Command) -> Output {
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    cmd.stdout(writer).output().expect("binary runs")
}

fn assert_broken_pipe_status(out: &Output) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(141), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn repro_rejects_an_unknown_target_before_writing_anything() {
    let dir = scratch("unknown_target");
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--quick", "--out"])
        .arg(&dir)
        .arg("tabel1")
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("\"tabel1\""), "names the id: {stderr}");
    assert!(
        stderr.contains("table1 table2 fig1 fig2_3"),
        "lists the ids: {stderr}"
    );
    assert!(!dir.exists(), "nothing written under --out");
}

#[test]
fn repro_closed_stdout_ends_with_the_broken_pipe_status() {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_repro"));
    cmd.args(["--quick", "--out"])
        .arg(scratch("closed_stdout"))
        .arg("text_inv");
    assert_broken_pipe_status(&with_closed_stdout(cmd));
}

#[test]
fn monitor_closed_stdout_ends_with_the_broken_pipe_status() {
    let mut hub = MetricsHub::new(true);
    for t in 0..20u64 {
        hub.sample_batch(t, &[20 - t; 4], Vec::new());
        hub.add(names::TASKS_DONE, 4);
    }
    let path = scratch("closed_stdout_metrics.jsonl");
    std::fs::write(&path, sample::to_jsonl(hub.samples())).expect("write dump");
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_autobal-monitor"));
    cmd.arg(&path);
    assert_broken_pipe_status(&with_closed_stdout(cmd));
}

#[cfg(target_os = "linux")]
#[test]
fn repro_stdout_write_error_ends_with_status_2() {
    let full = std::fs::OpenOptions::new()
        .write(true)
        .open("/dev/full")
        .expect("open /dev/full");
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--quick", "--out"])
        .arg(scratch("full_stdout"))
        .arg("text_inv")
        .stdout(full)
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("cannot write output"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}
