//! # autobal-perfbench
//!
//! The repository's benchmark: four workloads over the oracle ring,
//! the synchronous Chord protocol and the event-time Chord wire,
//! driven only through the library's public entry points. An untraced
//! run measures the end-to-end metrics; a traced run (`--trace 1`)
//! measures the per-layer ones. Both check every run's outputs. See
//! README.md for the workloads and metrics.

pub mod calib;
pub mod report;
pub mod spans;
pub mod stats;
pub mod traced;
pub mod trial;
pub mod untraced;
pub mod workloads;

use std::path::PathBuf;

use report::{result_line, Stamp};
use workloads::Workload;

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

pub const USAGE: &str =
    "usage: autobal-perfbench --workload <drain|sybil|event_wire|protocol_sync> \
     --seed <n> --seconds <s> --trace <0|1>";

/// Parses `--workload`, `--seed`, `--seconds` and `--trace`; all four
/// are required.
pub fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    workloads::find(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!(
                        "--seconds must be a non-negative number, not {value}"
                    ));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// What one invocation prints and how it exits.
pub struct Outcome {
    /// Human-readable summary and the run stamp; the result line is
    /// printed after them, last.
    pub lines: Vec<String>,
    pub result: String,
    pub correct: bool,
}

/// Where the traced run writes its spans: beside the build output, so
/// nothing lands in the source tree.
fn spans_path(w: &Workload, seed: u64) -> PathBuf {
    let target = std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent()?.parent().map(PathBuf::from))
        .unwrap_or_else(|| PathBuf::from("."));
    target
        .join("perfbench-spans")
        .join(format!("{}-seed{seed}.jsonl", w.name))
}

/// Runs the benchmark as `args` asks.
pub fn execute(args: &Args) -> Outcome {
    let w = &args.workload;
    let stamp = Stamp::new(*w, args.seed, args.trace, args.seconds);
    let mut lines = vec![
        format!(
            "perfbench {}: {} substrate, {} strategy, {} workers, {} tasks, churn {}, seed {}, {}",
            w.name,
            w.substrate.label(),
            w.strategy.label(),
            w.workers,
            w.tasks,
            w.churn_rate,
            args.seed,
            stamp.mode
        ),
        stamp.to_json(),
    ];
    let (values, attempted, failed, mut problems) = if args.trace {
        let t = traced::run_traced(w, args.seed, args.seconds);
        let path = spans_path(w, args.seed);
        match t.spans.write_jsonl(&path, &stamp.to_json()) {
            Ok(()) => lines.push(format!("spans: {} in {}", t.spans.len(), path.display())),
            Err(e) => lines.push(format!("spans not written to {}: {e}", path.display())),
        }
        (t.values, t.attempted, t.failed, t.problems)
    } else {
        let u = untraced::run_untraced(w, args.seed, args.seconds);
        lines.push(format!("runs: {} ({} trials)", u.attempted, w.trials));
        lines.push(format!(
            "calibration kernel: {:.6} s (reference {} s); unscaled setup_s {:.6} s, \
             tasks_per_s {:.6} tasks/s",
            u.kernel_s,
            calib::REFERENCE_S,
            u.raw_setup_s,
            u.raw_tasks_per_s
        ));
        lines.push(format!(
            "  {:<38} {:>16.6} msgs/task (per-layer; 0 on drain)",
            "msgs_per_task", u.msgs_per_task
        ));
        lines.push(format!(
            "  {:<38} {:>16.6} ratio",
            "failed_share",
            report::ratio(u.failed as f64, u.attempted as f64)
        ));
        (u.values, u.attempted, u.failed, u.problems)
    };
    for name in values.non_finite() {
        problems.push(format!("metric {name} is not a finite number"));
    }
    for (def, v) in values.iter() {
        lines.push(format!("  {:<38} {:>16.6} {}", def.name, v, def.unit));
    }
    for p in &problems {
        lines.push(format!("CHECK FAILED: {p}"));
    }
    let correct = failed == 0 && problems.is_empty();
    Outcome {
        lines,
        result: result_line(correct, attempted.max(1), failed, &values),
        correct,
    }
}
