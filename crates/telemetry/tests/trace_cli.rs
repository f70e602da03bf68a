//! Integration tests for the `autobal-trace` binary, driven as a real
//! subprocess on streams recorded fresh through the metrics hub and the
//! trace sink.

use autobal_metrics::{names, sample, MetricsHub};
use autobal_telemetry::{to_jsonl, Trace};
use std::path::PathBuf;
use std::process::{Command, Output};

fn trace_cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_autobal-trace"))
}

fn run(args: &[&str]) -> Output {
    trace_cli().args(args).output().expect("binary runs")
}

/// Writes `text` to `name` under the test target's scratch directory.
fn scratch_file(name: &str, text: &str) -> String {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::write(&path, text).expect("write scratch file");
    path.to_string_lossy().into_owned()
}

/// A metrics stream of `ticks` samples: four workers draining one task
/// each per tick.
fn metrics_dump(ticks: u64) -> String {
    let mut hub = MetricsHub::new(true);
    for t in 0..ticks {
        let left = ticks - t;
        hub.sample_batch(t, &[left; 4], Vec::new());
        hub.inc(names::TICKS);
        hub.add(names::TASKS_DONE, 4);
    }
    sample::to_jsonl(hub.samples())
}

fn stdout_of(out: &Output) -> String {
    assert!(
        out.status.success(),
        "status {:?}, stderr: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn validate_tells_a_metrics_stream_from_a_trace() {
    let metrics = scratch_file("validate_metrics.jsonl", &metrics_dump(5));
    let out = run(&["validate", &metrics]);
    assert_eq!(
        stdout_of(&out),
        format!("{metrics}: valid metrics stream, 5 samples\n")
    );

    let mut trace = Trace::new(true);
    trace.run_start(0, "oracle", "random", 7);
    trace.decision(1, "sybil_created", 0, "0x1", 3);
    trace.run_end(2, true);
    let trace = scratch_file("validate_trace.jsonl", &to_jsonl(trace.records()));
    let out = run(&["validate", &trace]);
    assert_eq!(
        stdout_of(&out),
        format!("{trace}: valid trace, 3 records\n")
    );
}

#[test]
fn validate_rejects_a_metrics_stream_whose_counter_goes_backwards() {
    let dump = metrics_dump(3).replacen("\"ticks\":0", "\"ticks\":9", 1);
    let path = scratch_file("validate_backwards.jsonl", &dump);
    let out = run(&["validate", &path]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("INVALID metrics stream") && stderr.contains("went backwards"),
        "{stderr}"
    );
}

#[test]
fn closed_stdout_ends_with_the_broken_pipe_status() {
    let path = scratch_file("broken_pipe_metrics.jsonl", &metrics_dump(50));
    // No reader is left on the pipe, so the first write fails.
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let out = trace_cli()
        .args(["timeseries", &path])
        .stdout(writer)
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(141), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}
