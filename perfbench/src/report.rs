//! The metric catalogue, the run stamp, and the result line.
//!
//! `BENCHMARK.json` at the repository root lists the same metrics; the
//! self-tests hold the two in step.

use std::fmt::Write as _;

use crate::workloads::Workload;

/// A metric's name, unit, and which direction is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: "lower",
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: "higher",
    }
}

/// Reported by every untraced run (`--trace 0`).
pub const END_TO_END: &[MetricDef] = &[
    lower("setup_s", "s"),
    higher("tasks_per_s", "tasks/s"),
    lower("runtime_factor", "ratio"),
    lower("peak_rss_mib", "MiB"),
];

/// Reported by every traced run (`--trace 1`). Layers a workload does
/// not exercise report 0, except the timings, which the probes measure
/// on every workload.
pub const PER_LAYER: &[MetricDef] = &[
    // autobal-workload
    lower("workload.gen_s", "s"),
    // core::ring / core::shard
    lower("ring.build_s", "s"),
    lower("ring.peak_vnodes", "count"),
    // core::sim
    lower("sim.ticks", "count"),
    lower("sim.step_us.p50", "us"),
    lower("sim.step_us.tail", "us"),
    lower("sim.step_us.tail_pct", "%"),
    lower("sim.step_us.samples", "count"),
    lower("sim.check_step_us.p50", "us"),
    lower("sim.check_step_us.tail", "us"),
    lower("sim.check_step_us.tail_pct", "%"),
    lower("sim.check_step_us.samples", "count"),
    // core::strategy
    lower("strategy.check_us", "us"),
    lower("strategy.sybils_created", "count"),
    lower("strategy.sybils_retired", "count"),
    higher("strategy.sybil_retire_ratio", "ratio"),
    lower("churn.leaves", "count"),
    lower("churn.joins", "count"),
    // chord::network + maintenance
    lower("chord.msgs.find_successor_hops", "count"),
    lower("chord.msgs.stabilize", "count"),
    lower("chord.msgs.notify", "count"),
    lower("chord.msgs.fix_finger", "count"),
    lower("chord.msgs.successor_list_pulls", "count"),
    lower("chord.msgs.replica_push", "count"),
    lower("chord.msgs.key_transfer", "count"),
    lower("chord.msgs.load_query", "count"),
    lower("chord.msgs.invitation", "count"),
    lower("chord.retries", "count"),
    lower("chord.timeouts", "count"),
    lower("chord.tasks_redone", "count"),
    lower("chord.maintenance_cycle_ms.p50", "ms"),
    lower("chord.maintenance_cycle_ms.tail", "ms"),
    lower("chord.maintenance_cycle_ms.tail_pct", "%"),
    lower("chord.maintenance_cycle_ms.samples", "count"),
    lower("chord.maintenance_share", "ratio"),
    // chord::eventnet
    lower("eventnet.events", "count"),
    higher("eventnet.events_per_s", "1/s"),
    lower("eventnet.msgs.find_successor_hops", "count"),
    lower("eventnet.msgs.stabilize", "count"),
    lower("eventnet.msgs.notify", "count"),
    lower("eventnet.msgs.fix_finger", "count"),
    lower("eventnet.msgs.load_query", "count"),
    lower("eventnet.msgs.invitation", "count"),
    lower("eventnet.strategy_share", "ratio"),
    lower("eventnet.lookups", "count"),
    lower("eventnet.lookup_timeouts", "count"),
    lower("eventnet.lookup_timeout_share", "ratio"),
    lower("eventnet.lookup_p50", "event_units"),
    lower("eventnet.lookup_p99", "event_units"),
    lower("eventnet.idle_s", "s"),
    lower("eventnet.idle_events", "count"),
    lower("eventnet.idle_share", "ratio"),
    // src/event_sim.rs
    lower("event_sim.tick_stretch", "ratio"),
    // autobal-telemetry / autobal-metrics
    lower("telemetry.armed_slowdown", "ratio"),
    // benchmark harness
    higher("bench.trace_overhead", "ratio"),
    // end-to-end figures that are 0 on some workload, so they cannot
    // carry a bound (see README.md)
    lower("msgs_per_task", "msgs/task"),
    lower("failed_share", "ratio"),
];

/// Metric values in catalogue order.
#[derive(Debug, Clone)]
pub struct Values {
    defs: &'static [MetricDef],
    values: Vec<f64>,
}

impl Values {
    /// Every metric of `defs`, starting at 0.
    pub fn zeroed(defs: &'static [MetricDef]) -> Values {
        Values {
            defs,
            values: vec![0.0; defs.len()],
        }
    }

    /// Sets metric `name`.
    ///
    /// # Panics
    /// Panics if `name` is not in the catalogue — a typo in this crate.
    pub fn set(&mut self, name: &str, value: f64) {
        let i = self
            .defs
            .iter()
            .position(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the catalogue"));
        self.values[i] = value;
    }

    pub fn iter(&self) -> impl Iterator<Item = (&MetricDef, f64)> {
        self.defs.iter().zip(self.values.iter().copied())
    }

    /// Names of metrics whose value is NaN or infinite.
    pub fn non_finite(&self) -> Vec<&'static str> {
        self.iter()
            .filter(|(_, v)| !v.is_finite())
            .map(|(d, _)| d.name)
            .collect()
    }
}

/// `a / b`, or 0 when `b` is 0 (a layer that did no work).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite number as JSON, with every digit Rust's shortest
/// round-trip formatting gives it.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, values: &Values) -> String {
    let mut out = format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{"
    );
    for (i, (def, v)) in values.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{}:{{\"value\":{},\"unit\":{}}}",
            json_str(def.name),
            json_num(v),
            json_str(def.unit)
        );
    }
    out.push_str("}}");
    out
}

/// Facts that make a result comparable: machine, toolchain, source,
/// seed, and the workload's stated sizes.
#[derive(Debug, Clone)]
pub struct Stamp {
    pub nproc: usize,
    pub threads: usize,
    pub rustc: &'static str,
    pub commit: String,
    pub seed: u64,
    pub mode: &'static str,
    pub seconds: f64,
    pub workload: Workload,
}

impl Stamp {
    pub fn new(workload: Workload, seed: u64, traced: bool, seconds: f64) -> Stamp {
        Stamp {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            // Every workload runs on the calling thread: one shard, no
            // parallel trials.
            threads: 1,
            rustc: env!("PERFBENCH_RUSTC"),
            commit: git_commit(),
            seed,
            mode: if traced { "traced" } else { "untraced" },
            seconds,
            workload,
        }
    }

    pub fn to_json(&self) -> String {
        let w = &self.workload;
        format!(
            "{{\"stamp\":{{\"nproc\":{},\"threads\":{},\"rustc\":{},\"commit\":{},\"seed\":{},\
             \"mode\":{},\"seconds\":{},\"workload\":{},\"substrate\":{},\"strategy\":{},\
             \"workers\":{},\"tasks\":{},\"churn_rate\":{},\"trials\":{}}}}}",
            self.nproc,
            self.threads,
            json_str(self.rustc),
            json_str(&self.commit),
            self.seed,
            json_str(self.mode),
            json_num(self.seconds),
            json_str(w.name),
            json_str(w.substrate.label()),
            json_str(w.strategy.label()),
            w.workers,
            w.tasks,
            json_num(w.churn_rate),
            w.trials,
        )
    }
}

/// The checked-out commit when the working directory is the root of a
/// git checkout, otherwise "unknown". Never asks git about a parent
/// directory's repository.
fn git_commit() -> String {
    if !std::path::Path::new(".git").exists() {
        return "unknown".to_string();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Peak resident set (`VmHWM`) of this process in MiB; 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}
