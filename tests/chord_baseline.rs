//! Full-run fingerprints of the two Chord substrates, pinned against a
//! committed fixture (`tests/data/chord_baseline.txt`).
//!
//! The goldens elsewhere pin mostly one strategy on one configuration
//! per substrate. This suite pins the whole grid: every decentralized
//! strategy under five conditions (plain; churn plus crash-failures; a
//! 10% lossy fault plan; 25% over-reporting liars against the k = 2
//! cross-check defense; abrupt Sybil retirement), each on the
//! synchronous protocol substrate and on the event wire at default
//! latency, plus the plain cell on the degenerate zero-latency wire.
//!
//! Each line holds the tick count, completion, event clock, per-worker
//! task counts, loss and crash counters, Sybil counters, every
//! `MessageStats` field of both bills, the wire's event and lookup
//! counters, and FNV digests of the event log, the trace JSONL and the
//! metrics JSONL. Regenerate deliberately with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test chord_baseline
//! ```

use autobal::chord::{AdversaryPlan, EventConfig, FaultPlan, LiePolicy, MessageStats};
use autobal::event_sim::{run_event_sim, EventRun, EventSimConfig};
use autobal::protocol_sim::{run_protocol_sim, ProtocolRun, ProtocolSimConfig};
use autobal::sim::strategy::crosscheck::CrossCheckConfig;
use autobal::sim::trace::event_log;
use autobal::sim::StrategyKind;
use autobal_metrics::MetricsSample;
use autobal_telemetry::Trace;
use rayon::prelude::*;
use std::path::PathBuf;

const SEED: u64 = 0xC40D;

const KINDS: [StrategyKind; 5] = [
    StrategyKind::None,
    StrategyKind::RandomInjection,
    StrategyKind::NeighborInjection,
    StrategyKind::SmartNeighbor,
    StrategyKind::Invitation,
];

/// FNV-1a over a byte stream: a stable, dependency-free digest.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0100_0000_01B3);
    }
    h
}

fn u64s_digest(xs: &[u64]) -> u64 {
    fnv1a(xs.iter().flat_map(|x| x.to_le_bytes()))
}

/// The named conditions: `(name, config)` for one strategy.
fn conditions(strategy: StrategyKind) -> Vec<(&'static str, ProtocolSimConfig)> {
    let base = ProtocolSimConfig {
        nodes: 16,
        tasks: 800,
        strategy,
        record_trace: true,
        record_metrics: true,
        metrics_ring: true,
        ..ProtocolSimConfig::default()
    };
    vec![
        ("plain", base.clone()),
        (
            "churn+crash",
            ProtocolSimConfig {
                churn_rate: 0.005,
                crash_rate: 0.05,
                ..base.clone()
            },
        ),
        (
            "lossy",
            ProtocolSimConfig {
                fault: FaultPlan::lossy(SEED, 0.10),
                ..base.clone()
            },
        ),
        (
            "liars+crosscheck",
            ProtocolSimConfig {
                adversary: AdversaryPlan::lying(7, 0.25, LiePolicy::OverReport),
                cross_check: CrossCheckConfig::with_budget(2),
                ..base.clone()
            },
        ),
        (
            "crash-retirement",
            ProtocolSimConfig {
                crash_retirement: true,
                ..base
            },
        ),
    ]
}

/// The fields both substrate reports share, rendered as one line tail.
fn common(tasks_done: &[u64], trace: &Trace, metrics: &[MetricsSample]) -> String {
    let events = event_log(trace);
    let event_digest = fnv1a(events.iter().flat_map(|e| {
        let (name, worker, pos, value) = e.decision_fields();
        format!("{} {name} {worker} {pos} {value}\n", e.tick()).into_bytes()
    }));
    let trace_digest = fnv1a(autobal_telemetry::to_jsonl(trace.records()).into_bytes());
    let metrics_digest = fnv1a(autobal_metrics::sample::to_jsonl(metrics).into_bytes());
    format!(
        "tasks_done_sum={} tasks_done={:016x} events={} event_log={event_digest:016x} \
         trace_records={} trace={trace_digest:016x} metrics_samples={} metrics={metrics_digest:016x}",
        tasks_done.iter().sum::<u64>(),
        u64s_digest(tasks_done),
        events.len(),
        trace.records().len(),
        metrics.len(),
    )
}

fn stats(s: &MessageStats) -> String {
    format!("{s:?}")
}

fn protocol_line(name: &str, r: &ProtocolRun) -> String {
    format!(
        "{name} ticks={} completed={} tasks_lost={} workers_crashed={} sybils_created={} \
         sybils_retired={} {} messages={}",
        r.ticks,
        r.completed,
        r.tasks_lost,
        r.workers_crashed,
        r.sybils_created,
        r.sybils_retired,
        common(&r.tasks_done, &r.trace, &r.metrics),
        stats(&r.messages),
    )
}

fn event_line(name: &str, r: &EventRun) -> String {
    format!(
        "{name} ticks={} completed={} time={} tasks_lost={} workers_crashed={} \
         sybils_created={} sybils_retired={} tasks_remaining={} wire_events={} lookups={} \
         lookup_latency_sum={} lookup_latencies={:016x} lookup_timeouts={} {} messages={} wire={}",
        r.ticks,
        r.completed,
        r.time,
        r.tasks_lost,
        r.workers_crashed,
        r.sybils_created,
        r.sybils_retired,
        r.tasks_remaining,
        r.wire_events,
        r.lookup_latencies.len(),
        r.lookup_latencies.iter().sum::<u64>(),
        u64s_digest(&r.lookup_latencies),
        r.lookup_timeouts,
        common(&r.tasks_done, &r.trace, &r.metrics),
        stats(&r.messages),
        stats(&r.wire),
    )
}

/// One substrate run of the grid.
enum Cell {
    Protocol(ProtocolSimConfig),
    Event(EventSimConfig),
}

fn cells() -> Vec<(String, Cell)> {
    let mut out = Vec::new();
    for kind in KINDS {
        let label = kind.label();
        for (cond, proto) in conditions(kind) {
            let event = EventSimConfig {
                proto: proto.clone(),
                ..EventSimConfig::default()
            };
            if cond == "plain" {
                let zero = EventSimConfig {
                    event: EventConfig {
                        latency: 0,
                        ..EventConfig::default()
                    },
                    ..event.clone()
                };
                out.push((format!("event-latency0/{label}/{cond}"), Cell::Event(zero)));
            }
            out.push((format!("protocol/{label}/{cond}"), Cell::Protocol(proto)));
            out.push((format!("event/{label}/{cond}"), Cell::Event(event)));
        }
    }
    out
}

/// Runs every cell (in parallel; each run is seeded on its own, so the
/// rendered lines do not depend on the thread count).
fn render() -> String {
    let lines: Vec<String> = cells()
        .into_par_iter()
        .map(|(name, cell)| match cell {
            Cell::Protocol(cfg) => protocol_line(&name, &run_protocol_sim(&cfg, SEED)),
            Cell::Event(cfg) => event_line(&name, &run_event_sim(&cfg, SEED)),
        })
        .collect();
    let mut out = String::new();
    for line in lines {
        out.push_str(&line);
        out.push('\n');
    }
    out
}

#[test]
fn every_chord_cell_reproduces_the_recorded_baseline() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/data/chord_baseline.txt");
    let fresh = render();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &fresh).expect("write golden");
    }
    let committed = std::fs::read_to_string(&path).expect("baseline fixture committed");
    // The grid exercises what it claims: Sybils joined, liars lied,
    // crashes fired and the lossy network dropped messages.
    for (prefix, inert) in [
        ("protocol/random/plain ", "sybils_created=0 "),
        ("protocol/smart/liars+crosscheck ", "lied: 0 }"),
        ("protocol/random/churn+crash ", "workers_crashed=0 "),
        ("protocol/random/lossy ", "dropped: 0,"),
    ] {
        let line = committed
            .lines()
            .find(|l| l.starts_with(prefix))
            .expect("cell present");
        assert!(!line.contains(inert), "cell {prefix}is inert: {line}");
    }
    for (want, got) in committed.lines().zip(fresh.lines()) {
        assert_eq!(got, want, "a Chord substrate drifted from the baseline");
    }
    assert_eq!(
        fresh.lines().count(),
        committed.lines().count(),
        "cell set changed; regenerate with UPDATE_GOLDEN=1 if intentional"
    );
}
