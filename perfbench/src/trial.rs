//! One untraced trial per substrate, the output checks every run must
//! pass, and the fingerprint that pins a trial's determinism.

use std::time::Instant;

use autobal::chord::{EventNet, Network};
use autobal::event_sim::{run_event_sim_with_placement, EventRun};
use autobal::protocol_sim::{run_protocol_sim_with_placement, ProtocolRun};
use autobal::sim::{RunResult, Sim};

use crate::stats::median;
use crate::workloads::{generate, Inputs, Substrate, Workload};

/// How many times a Chord trial builds its ready network for `setup_s`.
/// The build takes milliseconds there, so one sample would be noise.
const CHORD_SETUPS: usize = 5;

/// The deterministic outputs of one trial: identical on every run of
/// the same trial seed, whatever the timing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    pub ticks: u64,
    pub ideal_ticks: u64,
    /// `runtime_factor` as raw bits, so equality is exact.
    pub runtime_factor_bits: u64,
    /// Messages billed: see [`billed_oracle`], [`billed_protocol`],
    /// [`billed_event`].
    pub billed_msgs: u64,
}

impl Fingerprint {
    pub fn runtime_factor(&self) -> f64 {
        f64::from_bits(self.runtime_factor_bits)
    }
}

/// One timed trial.
#[derive(Debug, Clone)]
pub struct TrialResult {
    /// Seconds from seed to a ready simulator.
    pub setup_s: f64,
    /// Seconds of the run call.
    pub run_s: f64,
    pub fingerprint: Fingerprint,
    /// Failed output checks; empty when the trial is correct.
    pub problems: Vec<String>,
}

/// Oracle ring bill: the strategy messages a real network would send.
pub fn billed_oracle(r: &RunResult) -> u64 {
    r.messages.strategy_messages()
}

/// Protocol bill: every message of the synchronous network.
pub fn billed_protocol(r: &ProtocolRun) -> u64 {
    r.messages.total()
}

/// Event bill: the state-machine bill plus the wire bill.
pub fn billed_event(r: &EventRun) -> u64 {
    r.messages.total() + r.wire.total()
}

pub fn fingerprint(ticks: u64, ideal_ticks: u64, runtime_factor: f64, billed: u64) -> Fingerprint {
    Fingerprint {
        ticks,
        ideal_ticks,
        runtime_factor_bits: runtime_factor.to_bits(),
        billed_msgs: billed,
    }
}

/// Oracle ring: completed, and every task consumed exactly once.
pub fn check_oracle(r: &RunResult, tasks: u64) -> Vec<String> {
    let mut problems = Vec::new();
    if !r.completed {
        problems.push(format!("oracle run stopped at tick {} unfinished", r.ticks));
    }
    let consumed: u64 = r.work_per_tick.iter().sum();
    if consumed != tasks {
        problems.push(format!("oracle run consumed {consumed} of {tasks} tasks"));
    }
    if r.work_per_tick.len() as u64 != r.ticks {
        problems.push(format!(
            "oracle run logged {} ticks of work over {} ticks",
            r.work_per_tick.len(),
            r.ticks
        ));
    }
    problems
}

/// Conservation on the Chord substrates: nothing left, and done + lost
/// covers every task. Equality is too strict there: an ownership
/// handoff (a Sybil join or retirement, a churn leave) restores keys
/// consumed since the last replica sync, and the substrate redoes that
/// work rather than risk losing it, so done + lost may exceed tasks.
fn check_chord(
    kind: &str,
    completed: bool,
    done: &[u64],
    lost: u64,
    remaining: u64,
    tasks: u64,
) -> Vec<String> {
    let mut problems = Vec::new();
    if !completed {
        problems.push(format!("{kind} run did not complete"));
    }
    let done: u64 = done.iter().sum();
    if done + lost < tasks {
        problems.push(format!(
            "{kind} run: {done} done + {lost} lost < {tasks} tasks"
        ));
    }
    if remaining != 0 {
        problems.push(format!("{kind} run left {remaining} tasks"));
    }
    problems
}

pub fn check_protocol(r: &ProtocolRun, tasks: u64) -> Vec<String> {
    // The protocol run has no remaining-task field; it completes
    // exactly when its network holds no key.
    let remaining = u64::from(!r.completed);
    check_chord(
        "protocol",
        r.completed,
        &r.tasks_done,
        r.tasks_lost,
        remaining,
        tasks,
    )
}

pub fn check_event(r: &EventRun, tasks: u64) -> Vec<String> {
    check_chord(
        "event",
        r.completed,
        &r.tasks_done,
        r.tasks_lost,
        r.tasks_remaining,
        tasks,
    )
}

/// Builds what a Chord run builds before its first tick: the network
/// with every key stored and one maintenance cycle run, plus the wire
/// for the event substrate.
pub fn ready_chord(w: &Workload, inputs: &Inputs) -> (Network, Option<EventNet>) {
    let cfg = w.event_config();
    let mut net = Network::from_ids(cfg.proto.net, &inputs.node_ids).expect("distinct node ids");
    for &key in &inputs.task_keys {
        net.insert_key(key);
    }
    net.maintenance_cycle();
    let wire =
        (w.substrate == Substrate::Event).then(|| EventNet::from_ids(cfg.event, &inputs.node_ids));
    (net, wire)
}

/// Runs one untraced trial of `w` at `seed`: set-up, run, checks.
pub fn run_trial(w: &Workload, seed: u64) -> TrialResult {
    match w.substrate {
        Substrate::Oracle => {
            let t0 = Instant::now();
            let inputs = generate(w, seed);
            let sim = Sim::with_placement(w.sim_config(), seed, inputs.node_ids, inputs.task_keys);
            let setup_s = t0.elapsed().as_secs_f64();
            let t1 = Instant::now();
            let r = std::hint::black_box(sim.run());
            let run_s = t1.elapsed().as_secs_f64();
            TrialResult {
                setup_s,
                run_s,
                fingerprint: fingerprint(
                    r.ticks,
                    r.ideal_ticks,
                    r.runtime_factor,
                    billed_oracle(&r),
                ),
                problems: check_oracle(&r, w.tasks),
            }
        }
        Substrate::Protocol | Substrate::Event => {
            let mut setups = Vec::with_capacity(CHORD_SETUPS);
            let mut inputs = None;
            for _ in 0..CHORD_SETUPS {
                let t0 = Instant::now();
                let generated = generate(w, seed);
                std::hint::black_box(ready_chord(w, &generated));
                setups.push(t0.elapsed().as_secs_f64());
                inputs = Some(generated);
            }
            let inputs = inputs.expect("at least one set-up");
            let t1 = Instant::now();
            let (fp, problems) = if w.substrate == Substrate::Protocol {
                let r = run_protocol_sim_with_placement(
                    &w.protocol_config(),
                    seed,
                    inputs.node_ids,
                    inputs.task_keys,
                );
                let fp = fingerprint(
                    r.ticks,
                    r.ideal_ticks,
                    r.runtime_factor,
                    billed_protocol(&r),
                );
                (fp, check_protocol(&r, w.tasks))
            } else {
                let r = run_event_sim_with_placement(
                    &w.event_config(),
                    seed,
                    inputs.node_ids,
                    inputs.task_keys,
                );
                let fp = fingerprint(r.ticks, r.ideal_ticks, r.runtime_factor, billed_event(&r));
                (fp, check_event(&r, w.tasks))
            };
            let run_s = t1.elapsed().as_secs_f64();
            TrialResult {
                setup_s: median(&setups),
                run_s,
                fingerprint: fp,
                problems,
            }
        }
    }
}
