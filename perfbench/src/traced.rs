//! The traced run: the per-layer metrics.
//!
//! It runs rounds of trial 0 until its time is spent, then two probes,
//! each call into the library wrapped in a span. A round runs the
//! trial (steps 1–4); counts repeat exactly every round, and timings
//! are medians over rounds, with step timings pooled.
//!
//! 1. untraced, as the reference for determinism and overheads;
//! 2. traced: placement generation, then the substrate — the oracle
//!    ring one `Sim::step` at a time, a Chord substrate as one
//!    `run_*_with_placement` call;
//! 3. on the Chord workloads, the oracle twin (same placement,
//!    strategy and churn on the oracle ring), stepped the same way, so
//!    the `core::*` layers are measured on every workload;
//! 4. with the library's trace and metrics planes armed;
//! 5. the Chord probe: `Network::from_ids` over the first
//!    [`CHORD_PROBE_NODES`] ids and their keys, then timed
//!    `maintenance_cycle()` calls;
//! 6. the idle-wire probe: `EventNet::from_ids` over the first
//!    [`IDLE_PROBE_NODES`] ids, run with no application traffic up to
//!    the event run's final clock (elsewhere, the ideal runtime).
//!
//! Every run's outputs are checked as in the untraced run.

use std::time::{Duration, Instant};

use autobal::chord::{EventNet, MessageStats, Network};
use autobal::event_sim::{run_event_sim_with_placement, EventRun};
use autobal::protocol_sim::run_protocol_sim_with_placement;
use autobal::sim::{Sim, SimConfig, SimMessageStats};

use crate::report::{ratio, Values, PER_LAYER};
use crate::spans::{SpanId, Spans};
use crate::stats::{median, percentile, Timing};
use crate::trial::{
    billed_event, billed_oracle, billed_protocol, check_event, check_oracle, check_protocol,
    fingerprint, run_trial, Fingerprint,
};
use crate::workloads::{generate, trial_seed, Inputs, Substrate, Workload};

/// Nodes in the Chord probe (the `protocol_sync` size), keeping 100
/// keys per node like every workload.
pub const CHORD_PROBE_NODES: usize = 128;
/// Fewest `maintenance_cycle()` calls the Chord probe times: one per
/// task a node starts with, and enough for a p90 tail with ten samples
/// beyond it. On a Chord workload the probe runs one cycle per tick of
/// the traced run when that is more.
pub const CHORD_PROBE_CYCLES: usize = 100;
/// Nodes in the idle-wire probe (the `event_wire` size).
pub const IDLE_PROBE_NODES: usize = 16;

/// What the traced run measured and checked.
pub struct Traced {
    pub values: Values,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    pub spans: Spans,
}

/// Attempted and failed runs of the traced mode.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Checks {
    fn record(&mut self, what: &str, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            self.problems
                .extend(problems.into_iter().map(|p| format!("{what}: {p}")));
        }
    }

    fn same(&self, reference: Fingerprint, fp: Fingerprint) -> Vec<String> {
        if reference == fp {
            Vec::new()
        } else {
            vec![format!(
                "differs from the untraced trial: {reference:?} vs {fp:?}"
            )]
        }
    }
}

/// The oracle ring driven one step at a time.
struct SteppedOracle {
    build_s: f64,
    run_s: f64,
    plain_us: Vec<f64>,
    check_us: Vec<f64>,
    peak_vnodes: usize,
    messages: SimMessageStats,
    fingerprint: Fingerprint,
    problems: Vec<String>,
}

fn step_oracle(
    spans: &mut Spans,
    parent: SpanId,
    cfg: SimConfig,
    seed: u64,
    inputs: Inputs,
) -> SteppedOracle {
    let tasks = cfg.tasks;
    let cap = cfg.effective_max_ticks();
    let ideal = cfg.ideal_ticks().max(1);
    let every = cfg.check_interval;
    let (mut sim, build_s) = spans.time("sim.with_placement", Some(parent), || {
        Sim::with_placement(cfg, seed, inputs.node_ids, inputs.task_keys)
    });
    let steps = spans.begin("sim.steps", Some(parent));
    let mut plain_us = Vec::new();
    let mut check_us = Vec::new();
    let mut peak_vnodes = sim.ring().len();
    let mut consumed = 0u64;
    while sim.remaining_tasks() > 0 && sim.tick() < cap {
        let check = (sim.tick() + 1).is_multiple_of(every);
        let name = if check { "sim.step.check" } else { "sim.step" };
        let (done, secs) = spans.time(name, Some(steps), || sim.step());
        consumed += done;
        peak_vnodes = peak_vnodes.max(sim.ring().len());
        if check {
            check_us.push(secs * 1e6);
        } else {
            plain_us.push(secs * 1e6);
        }
    }
    let run_s = spans.end(steps);
    let ticks = sim.tick();
    let messages = sim.messages();
    let mut problems = Vec::new();
    if sim.remaining_tasks() != 0 {
        problems.push(format!("stepped run left {} tasks", sim.remaining_tasks()));
    }
    if consumed != tasks {
        problems.push(format!("stepped run consumed {consumed} of {tasks} tasks"));
    }
    SteppedOracle {
        build_s,
        run_s,
        plain_us,
        check_us,
        peak_vnodes,
        messages,
        fingerprint: fingerprint(
            ticks,
            ideal,
            ticks as f64 / ideal as f64,
            messages.strategy_messages(),
        ),
        problems,
    }
}

fn set_timing(v: &mut Values, prefix: &str, t: &Timing) {
    v.set(&format!("{prefix}.p50"), t.p50);
    v.set(&format!("{prefix}.tail"), t.tail);
    v.set(&format!("{prefix}.tail_pct"), t.tail_pct);
    v.set(&format!("{prefix}.samples"), t.samples as f64);
}

fn set_oracle_counts(v: &mut Values, o: &SteppedOracle) {
    v.set("ring.peak_vnodes", o.peak_vnodes as f64);
    v.set("sim.ticks", o.fingerprint.ticks as f64);
    let m = &o.messages;
    v.set("strategy.sybils_created", m.sybils_created as f64);
    v.set("strategy.sybils_retired", m.sybils_retired as f64);
    v.set(
        "strategy.sybil_retire_ratio",
        ratio(m.sybils_retired as f64, m.sybils_created as f64),
    );
    v.set("churn.leaves", m.churn_leaves as f64);
    v.set("churn.joins", m.churn_joins as f64);
}

fn set_chord_bill(v: &mut Values, m: &MessageStats) {
    v.set(
        "chord.msgs.find_successor_hops",
        m.find_successor_hops as f64,
    );
    v.set("chord.msgs.stabilize", m.stabilize as f64);
    v.set("chord.msgs.notify", m.notify as f64);
    v.set("chord.msgs.fix_finger", m.fix_finger as f64);
    v.set(
        "chord.msgs.successor_list_pulls",
        m.successor_list_pulls as f64,
    );
    v.set("chord.msgs.replica_push", m.replica_push as f64);
    v.set("chord.msgs.key_transfer", m.key_transfer as f64);
    v.set("chord.msgs.load_query", m.load_query as f64);
    v.set("chord.msgs.invitation", m.invitation as f64);
    v.set("chord.retries", m.retries as f64);
    v.set("chord.timeouts", m.timeouts as f64);
}

/// Tasks consumed again after an ownership handoff restored them.
fn redone(done: &[u64], lost: u64, tasks: u64) -> f64 {
    (done.iter().sum::<u64>() + lost).saturating_sub(tasks) as f64
}

fn set_wire(v: &mut Values, r: &EventRun, tick_len: u64) {
    let w = &r.wire;
    v.set("eventnet.events", r.wire_events as f64);
    v.set(
        "eventnet.msgs.find_successor_hops",
        w.find_successor_hops as f64,
    );
    v.set("eventnet.msgs.stabilize", w.stabilize as f64);
    v.set("eventnet.msgs.notify", w.notify as f64);
    v.set("eventnet.msgs.fix_finger", w.fix_finger as f64);
    v.set("eventnet.msgs.load_query", w.load_query as f64);
    v.set("eventnet.msgs.invitation", w.invitation as f64);
    v.set(
        "eventnet.strategy_share",
        ratio(w.strategy_overhead() as f64, w.total() as f64),
    );
    let lookups = r.lookup_latencies.len() as u64 + r.lookup_timeouts;
    v.set("eventnet.lookups", lookups as f64);
    v.set("eventnet.lookup_timeouts", r.lookup_timeouts as f64);
    v.set(
        "eventnet.lookup_timeout_share",
        ratio(r.lookup_timeouts as f64, lookups as f64),
    );
    let latencies: Vec<f64> = r.lookup_latencies.iter().map(|&l| l as f64).collect();
    v.set("eventnet.lookup_p50", percentile(&latencies, 50.0));
    v.set("eventnet.lookup_p99", percentile(&latencies, 99.0));
    v.set(
        "event_sim.tick_stretch",
        ratio(r.time as f64, (r.ticks * tick_len) as f64),
    );
}

/// The first `nodes` ids of a placement and their share of the keys
/// (100 per node, as in every workload).
fn prefix(i: &Inputs, nodes: usize) -> Inputs {
    let nodes = i.node_ids.len().min(nodes);
    let keys = i.task_keys.len().min(nodes * 100);
    Inputs {
        node_ids: i.node_ids[..nodes].to_vec(),
        task_keys: i.task_keys[..keys].to_vec(),
    }
}

/// Times `maintenance_cycle()` on a Chord network over a prefix of the
/// placement. Between cycles, untimed, every node consumes one key, as
/// in a run's work phase: replication cost follows the key count, so a
/// probe that kept every key would overstate a run's upkeep. Returns
/// per-cycle milliseconds.
fn chord_probe(spans: &mut Spans, w: &Workload, inputs: &Inputs, cycles: usize) -> Vec<f64> {
    let root = spans.begin("probe.chord", None);
    let probe = prefix(inputs, CHORD_PROBE_NODES);
    let cfg = w.protocol_config().net;
    let (mut net, _) = spans.time("network.from_ids", Some(root), || {
        let mut net = Network::from_ids(cfg, &probe.node_ids).expect("distinct node ids");
        for &key in &probe.task_keys {
            net.insert_key(key);
        }
        net.maintenance_cycle();
        net
    });
    let mut ms = Vec::with_capacity(cycles);
    for _ in 0..cycles {
        let (_, secs) = spans.time("network.maintenance_cycle", Some(root), || {
            net.maintenance_cycle()
        });
        ms.push(secs * 1e3);
        for &id in &probe.node_ids {
            if let Some(node) = net.node_mut(id) {
                node.keys.pop_first();
            }
        }
    }
    spans.end(root);
    ms
}

/// Runs a wire over a prefix of the placement with no application
/// traffic until `horizon`. Returns (seconds, events).
fn idle_probe(spans: &mut Spans, w: &Workload, inputs: &Inputs, horizon: u64) -> (f64, u64) {
    let root = spans.begin("probe.idle_wire", None);
    let nodes = inputs.node_ids.len().min(IDLE_PROBE_NODES);
    let cfg = w.event_config().event;
    let (mut wire, _) = spans.time("eventnet.from_ids", Some(root), || {
        EventNet::from_ids(cfg, &inputs.node_ids[..nodes])
    });
    let (events, secs) = spans.time("eventnet.run_until", Some(root), || wire.run_until(horizon));
    spans.end(root);
    (secs, events)
}

/// Timings gathered over the rounds of a traced run.
#[derive(Default)]
struct Timings {
    gen_s: Vec<f64>,
    build_s: Vec<f64>,
    plain_us: Vec<f64>,
    check_us: Vec<f64>,
    traced_run_s: Vec<f64>,
    trace_overhead: Vec<f64>,
    armed_slowdown: Vec<f64>,
    events_per_s: Vec<f64>,
}

impl Timings {
    fn add_steps(&mut self, o: &SteppedOracle) {
        self.build_s.push(o.build_s);
        self.plain_us.extend_from_slice(&o.plain_us);
        self.check_us.extend_from_slice(&o.check_us);
    }
}

/// What the probes need from a round: a prefix of the placement, the
/// traced fingerprint, and the event run's final clock and events.
struct RoundOut {
    keep: Inputs,
    fingerprint: Fingerprint,
    wire_run: Option<(u64, u64)>,
}

/// One round: the untraced reference, the traced trial, the oracle
/// twin of a Chord workload, and the armed trial, all of trial 0.
/// Counts go straight into `v` (they repeat exactly every round);
/// timings go into `t`.
fn round(
    spans: &mut Spans,
    v: &mut Values,
    checks: &mut Checks,
    t: &mut Timings,
    w: &Workload,
    seed0: u64,
) -> RoundOut {
    // 1. The untraced reference.
    let reference = run_trial(w, seed0);
    checks.record("untraced trial", reference.problems.clone());
    let ref_fp = reference.fingerprint;

    // 2. The traced trial.
    let root = spans.begin("trial.traced", None);
    let (inputs, gen_s) = spans.time("workload.generate", Some(root), || generate(w, seed0));
    t.gen_s.push(gen_s);
    // The probes need only a prefix; later full trials regenerate.
    let keep = prefix(&inputs, CHORD_PROBE_NODES);
    let mut wire_run = None;
    let (fp, traced_run_s) = match w.substrate {
        Substrate::Oracle => {
            let o = step_oracle(spans, root, w.sim_config(), seed0, inputs);
            let mut problems = o.problems.clone();
            problems.extend(checks.same(ref_fp, o.fingerprint));
            checks.record("stepped oracle trial", problems);
            set_oracle_counts(v, &o);
            t.add_steps(&o);
            (o.fingerprint, o.run_s)
        }
        Substrate::Protocol => {
            let (r, secs) = spans.time("protocol_sim.run_with_placement", Some(root), || {
                run_protocol_sim_with_placement(
                    &w.protocol_config(),
                    seed0,
                    inputs.node_ids,
                    inputs.task_keys,
                )
            });
            let f = fingerprint(
                r.ticks,
                r.ideal_ticks,
                r.runtime_factor,
                billed_protocol(&r),
            );
            let mut problems = check_protocol(&r, w.tasks);
            problems.extend(checks.same(ref_fp, f));
            checks.record("traced protocol trial", problems);
            set_chord_bill(v, &r.messages);
            v.set(
                "chord.tasks_redone",
                redone(&r.tasks_done, r.tasks_lost, w.tasks),
            );
            (f, secs)
        }
        Substrate::Event => {
            let cfg = w.event_config();
            let (r, secs) = spans.time("event_sim.run_with_placement", Some(root), || {
                run_event_sim_with_placement(&cfg, seed0, inputs.node_ids, inputs.task_keys)
            });
            let f = fingerprint(r.ticks, r.ideal_ticks, r.runtime_factor, billed_event(&r));
            let mut problems = check_event(&r, w.tasks);
            problems.extend(checks.same(ref_fp, f));
            checks.record("traced event trial", problems);
            set_chord_bill(v, &r.messages);
            v.set(
                "chord.tasks_redone",
                redone(&r.tasks_done, r.tasks_lost, w.tasks),
            );
            set_wire(v, &r, cfg.tick_len);
            t.events_per_s.push(ratio(r.wire_events as f64, secs));
            wire_run = Some((r.time, r.wire_events));
            (f, secs)
        }
    };
    spans.end(root);
    t.traced_run_s.push(traced_run_s);
    t.trace_overhead.push(ratio(reference.run_s, traced_run_s));

    // 3. The oracle twin of a Chord workload.
    if w.substrate != Substrate::Oracle {
        let twin = spans.begin("trial.oracle_twin", None);
        let o = step_oracle(spans, twin, w.sim_config(), seed0, generate(w, seed0));
        spans.end(twin);
        checks.record("oracle twin", o.problems.clone());
        set_oracle_counts(v, &o);
        t.add_steps(&o);
    }

    // 4. The armed trial: trace and metrics planes on.
    let armed = spans.begin("trial.armed", None);
    let inputs = generate(w, seed0);
    let (armed_fp, mut problems, armed_s) = match w.substrate {
        Substrate::Oracle => {
            let cfg = SimConfig {
                record_trace: true,
                record_metrics: true,
                ..w.sim_config()
            };
            let sim = Sim::with_placement(cfg, seed0, inputs.node_ids, inputs.task_keys);
            let (r, secs) = spans.time("sim.run", Some(armed), || sim.run());
            let f = fingerprint(r.ticks, r.ideal_ticks, r.runtime_factor, billed_oracle(&r));
            (f, check_oracle(&r, w.tasks), secs)
        }
        Substrate::Protocol => {
            let mut cfg = w.protocol_config();
            cfg.record_trace = true;
            cfg.record_metrics = true;
            let (r, secs) = spans.time("protocol_sim.run_with_placement", Some(armed), || {
                run_protocol_sim_with_placement(&cfg, seed0, inputs.node_ids, inputs.task_keys)
            });
            let f = fingerprint(
                r.ticks,
                r.ideal_ticks,
                r.runtime_factor,
                billed_protocol(&r),
            );
            (f, check_protocol(&r, w.tasks), secs)
        }
        Substrate::Event => {
            let mut cfg = w.event_config();
            cfg.proto.record_trace = true;
            cfg.proto.record_metrics = true;
            let (r, secs) = spans.time("event_sim.run_with_placement", Some(armed), || {
                run_event_sim_with_placement(&cfg, seed0, inputs.node_ids, inputs.task_keys)
            });
            let f = fingerprint(r.ticks, r.ideal_ticks, r.runtime_factor, billed_event(&r));
            (f, check_event(&r, w.tasks), secs)
        }
    };
    spans.end(armed);
    problems.extend(checks.same(ref_fp, armed_fp));
    checks.record("armed trial", problems);
    t.armed_slowdown.push(ratio(armed_s, reference.run_s));

    RoundOut {
        keep,
        fingerprint: fp,
        wire_run,
    }
}

/// Runs rounds of trial 0 until `seconds` is spent (at least one),
/// then the probes.
pub fn run_traced(w: &Workload, seed: u64, seconds: f64) -> Traced {
    let seed0 = trial_seed(seed, 0);
    let mut spans = Spans::new();
    let mut v = Values::zeroed(PER_LAYER);
    let mut checks = Checks::default();
    let mut t = Timings::default();
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut first: Option<Fingerprint> = None;
    let out = loop {
        let began = Instant::now();
        let out = round(&mut spans, &mut v, &mut checks, &mut t, w, seed0);
        match first {
            None => first = Some(out.fingerprint),
            Some(f) => checks.record("repeated round", checks.same(f, out.fingerprint)),
        }
        if start.elapsed() + began.elapsed() > budget {
            break out;
        }
    };

    let plain = Timing::of(&t.plain_us);
    let check = Timing::of(&t.check_us);
    v.set("workload.gen_s", median(&t.gen_s));
    v.set("ring.build_s", median(&t.build_s));
    set_timing(&mut v, "sim.step_us", &plain);
    set_timing(&mut v, "sim.check_step_us", &check);
    v.set("strategy.check_us", check.p50 - plain.p50);
    v.set(
        "msgs_per_task",
        ratio(out.fingerprint.billed_msgs as f64, w.tasks as f64),
    );
    v.set("bench.trace_overhead", median(&t.trace_overhead));
    v.set("telemetry.armed_slowdown", median(&t.armed_slowdown));
    if w.substrate == Substrate::Event {
        v.set("eventnet.events_per_s", median(&t.events_per_s));
    }

    // 5. The Chord probe: on a Chord workload, one cycle per tick of
    //    the run, so its total estimates the run's upkeep.
    let chord = w.substrate != Substrate::Oracle;
    let ticks = out.fingerprint.ticks as usize;
    let cycles = if chord {
        ticks.max(CHORD_PROBE_CYCLES)
    } else {
        CHORD_PROBE_CYCLES
    };
    let cycle_ms = chord_probe(&mut spans, w, &out.keep, cycles);
    set_timing(&mut v, "chord.maintenance_cycle_ms", &Timing::of(&cycle_ms));
    if chord {
        let upkeep_s: f64 = cycle_ms[..ticks.min(cycle_ms.len())].iter().sum::<f64>() / 1e3;
        v.set(
            "chord.maintenance_share",
            ratio(upkeep_s, median(&t.traced_run_s)),
        );
    }

    // 6. The idle wire: up to the event run's final clock, or the
    //    ideal runtime where there is no event run.
    let horizon = out
        .wire_run
        .map_or(w.ideal_ticks() * w.event_config().tick_len, |(time, _)| {
            time
        });
    let (idle_s, idle_events) = idle_probe(&mut spans, w, &out.keep, horizon);
    v.set("eventnet.idle_s", idle_s);
    v.set("eventnet.idle_events", idle_events as f64);
    if let Some((_, run_events)) = out.wire_run {
        v.set(
            "eventnet.idle_share",
            ratio(idle_events as f64, run_events as f64),
        );
    }

    v.set(
        "failed_share",
        ratio(checks.failed as f64, checks.attempted as f64),
    );
    Traced {
        values: v,
        attempted: checks.attempted,
        failed: checks.failed,
        problems: checks.problems,
        spans,
    }
}
