//! The untraced run: the end-to-end metrics.
//!
//! A run cycles through the workload's fixed set of trial seeds until
//! its time is spent. It runs every trial at least once and trial 0 at
//! least twice, so each run checks determinism on a repeated seed.

use std::time::{Duration, Instant};

use crate::calib;
use crate::report::{peak_rss_mib, ratio, Values, END_TO_END};
use crate::stats::median;
use crate::trial::{run_trial, Fingerprint};
use crate::workloads::{trial_seed, Workload};

/// What an untraced run measured and checked.
#[derive(Debug, Clone)]
pub struct Untraced {
    pub values: Values,
    /// Runs attempted (trials, repeats included) and how many failed a
    /// check.
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    /// Messages billed per task over the distinct trials; reported in
    /// the summary because it is 0 on `drain`.
    pub msgs_per_task: f64,
    /// Median seconds of the calibration kernel over the run, and the
    /// unscaled medians of `setup_s` and `tasks_per_s`.
    pub kernel_s: f64,
    pub raw_setup_s: f64,
    pub raw_tasks_per_s: f64,
}

pub fn run_untraced(w: &Workload, seed: u64, seconds: f64) -> Untraced {
    let trials = w.trials.max(1) as usize;
    let budget = Duration::from_secs_f64(seconds.max(0.0));
    let start = Instant::now();

    let mut first: Vec<Option<Fingerprint>> = vec![None; trials];
    let mut walls: Vec<Vec<f64>> = vec![Vec::new(); trials];
    let mut last_took: Vec<Duration> = vec![Duration::ZERO; trials];
    let mut setups = Vec::new();
    let mut peak_rss = 0.0;
    let mut kernels = Vec::new();
    let mut problems = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);

    for i in 0.. {
        let trial = i % trials;
        if i > trials && start.elapsed() + last_took[trial] > budget {
            break;
        }
        let t = Instant::now();
        let r = run_trial(w, trial_seed(seed, trial as u64));
        last_took[trial] = t.elapsed();
        attempted += 1;
        let mut bad = r.problems;
        match first[trial] {
            None => first[trial] = Some(r.fingerprint),
            Some(fp) if fp != r.fingerprint => bad.push(format!(
                "trial {trial} not deterministic: {fp:?} then {:?}",
                r.fingerprint
            )),
            Some(_) => {}
        }
        if i == 0 {
            // The first trial's peak: later trials reuse memory the
            // allocator kept from earlier ones, so their peaks say more
            // about its history than about the trial.
            peak_rss = peak_rss_mib();
        }
        setups.push(r.setup_s);
        walls[trial].push(r.run_s);
        kernels.push(calib::kernel_s());
        if !bad.is_empty() {
            failed += 1;
            problems.extend(bad);
        }
    }

    // Medians over the trials: one slow placement, or one stall of the
    // machine, moves a median far less than a mean.
    let fps: Vec<Fingerprint> = first.iter().flatten().copied().collect();
    let throughputs: Vec<f64> = walls
        .iter()
        .filter(|v| !v.is_empty())
        .map(|v| ratio(w.tasks as f64, median(v)))
        .collect();
    let factors: Vec<f64> = fps.iter().map(Fingerprint::runtime_factor).collect();
    let billed: f64 = fps.iter().map(|f| f.billed_msgs as f64).sum();
    let tasks = w.tasks as f64 * fps.len() as f64;

    // Times scaled to the reference machine: `slowdown` > 1 when this
    // machine ran the calibration kernel slower than the reference.
    let kernel_s = median(&kernels);
    let slowdown = kernel_s / calib::REFERENCE_S;
    let raw_setup_s = median(&setups);
    let raw_tasks_per_s = median(&throughputs);

    let mut values = Values::zeroed(END_TO_END);
    values.set("setup_s", raw_setup_s / slowdown);
    values.set("tasks_per_s", raw_tasks_per_s * slowdown);
    values.set("runtime_factor", median(&factors));
    values.set("peak_rss_mib", peak_rss);
    Untraced {
        values,
        attempted,
        failed,
        problems,
        msgs_per_task: ratio(billed, tasks),
        kernel_s,
        raw_setup_s,
        raw_tasks_per_s,
    }
}
