//! Integration tests for the `autobal-cli` binary, driven as a real
//! subprocess (cargo exposes the built path via `CARGO_BIN_EXE_*`).

use std::process::Command;

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_autobal-cli"))
}

#[test]
fn run_subcommand_reports_a_factor() {
    let out = cli()
        .args([
            "run",
            "--nodes",
            "50",
            "--tasks",
            "2000",
            "--strategy",
            "random",
            "--trials",
            "3",
            "--seed",
            "7",
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("runtime factor"), "{stdout}");
    assert!(stdout.contains("random | 50 nodes, 2000 tasks"));
}

#[test]
fn json_output_is_parseable() {
    let out = cli()
        .args([
            "run",
            "--nodes",
            "40",
            "--tasks",
            "1000",
            "--strategy",
            "churn",
            "--churn",
            "0.02",
            "--trials",
            "2",
            "--json",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let v: serde_json::Value = serde_json::from_slice(&out.stdout).expect("valid JSON on --json");
    assert_eq!(v["strategy"], "churn");
    assert_eq!(v["nodes"], 40);
    assert!(v["mean_runtime_factor"].as_f64().unwrap() > 0.9);
    assert_eq!(v["incomplete"], 0);
}

#[test]
fn strategies_subcommand_lists_all() {
    let out = cli().arg("strategies").output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    for s in [
        "none",
        "churn",
        "random",
        "neighbor",
        "smart",
        "invitation",
        "oracle",
    ] {
        assert!(stdout.contains(s), "missing {s} in {stdout}");
    }
}

#[test]
fn spec_subcommand_runs_a_json_experiment() {
    let dir = std::env::temp_dir().join("autobal_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let spec_path = dir.join("spec.json");
    let spec = autobal::workload::ExperimentSpec::new(
        "cli-spec-test",
        autobal::sim::SimConfig {
            nodes: 30,
            tasks: 600,
            strategy: autobal::sim::StrategyKind::Invitation,
            ..autobal::sim::SimConfig::default()
        },
        2,
        11,
    );
    std::fs::write(&spec_path, spec.to_json()).unwrap();
    let out = cli()
        .args(["spec", spec_path.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("experiment: cli-spec-test"));
    assert!(stdout.contains("invitation | 30 nodes, 600 tasks"));
}

#[test]
fn bad_arguments_exit_nonzero_with_usage() {
    let out = cli().arg("frobnicate").output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));

    let out = cli().args(["run", "--strategy", "bogus"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown strategy"));

    let out = cli()
        .args(["spec", "/nonexistent/path.json"])
        .output()
        .unwrap();
    assert!(!out.status.success());
}

#[test]
fn invalid_config_is_rejected_cleanly() {
    let out = cli()
        .args(["run", "--nodes", "0", "--tasks", "10"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("invalid config"));
}

#[test]
fn zero_trials_are_rejected_cleanly() {
    let out = cli()
        .args(["run", "--nodes", "10", "--tasks", "100", "--trials", "0"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--trials must be at least 1"), "{stderr}");

    let dir = std::env::temp_dir().join("autobal_cli_zero_trials");
    std::fs::create_dir_all(&dir).unwrap();
    let spec_path = dir.join("spec.json");
    let spec = autobal::workload::ExperimentSpec::new(
        "zero-trials",
        autobal::sim::SimConfig {
            nodes: 10,
            tasks: 100,
            ..autobal::sim::SimConfig::default()
        },
        0,
        1,
    );
    std::fs::write(&spec_path, spec.to_json()).unwrap();
    let out = cli()
        .args(["spec", spec_path.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("trials must be at least 1"), "{stderr}");
}
