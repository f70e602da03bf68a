//! `repro eventtime` — decision quality versus message latency.
//!
//! The comparison the event-time substrate exists to make: the same
//! strategy stack, the same seed, the same workload, run (a) on the
//! synchronous protocol substrate where every load query answers
//! instantly, and (b) on the asynchronous overlay where strategy
//! traffic races stabilization under real message latency. The table
//! scores *decision quality* — final Gini over per-worker tasks
//! consumed, runtime factor, message bills on both planes, and the
//! wire's lookup-latency tail — across latency settings and
//! stabilization cadences.
//!
//! The `latency=0` row doubles as a live parity check: with an inert
//! fault plan the event run must land on exactly the protocol run's
//! tick count and Sybil census (the trace-level pin lives in
//! `tests/trace_plane.rs`; this asserts the same anchor end to end in
//! the experiment binary).
//!
//! A finding the table makes visible: on a *reliable* wire, latency
//! alone never changes the decisions — checks block on their replies,
//! so staleness cannot leak in; the cost shows up purely as event-time
//! stretch and wire traffic (the stabilization cadence multiplies the
//! bill). Decision quality only moves once the wire actually fails —
//! the final lossy row is where the Gini leaves the synchronous
//! reference.
//!
//! The wire does no finger refresh, so its routed lookups are join
//! lookups only (Sybil joins and churn rejoins). The `wire msgs`,
//! `lookup p50/p99` and `lookup timeouts` columns count that traffic
//! plus stabilize, notify and strategy messages. Tables recorded while
//! the wire still refreshed fingers over routed lookups counted those
//! too, and do not compare column for column.

use crate::common::{write_table, Args};
use autobal::event_sim::{run_event_sim, EventSimConfig};
use autobal::protocol_sim::{run_protocol_sim, ProtocolSimConfig};
use autobal_chord::EventConfig;
use autobal_core::StrategyKind;
use autobal_stats::fairness::gini;
use autobal_stats::summary::percentile_sorted;
use autobal_telemetry::outln;
use autobal_workload::tables::{f3, Table};

const NODES: usize = 48;
const TASKS: u64 = 3_200;

fn proto_cfg() -> ProtocolSimConfig {
    ProtocolSimConfig {
        nodes: NODES,
        tasks: TASKS,
        // The probing strategy: every decision reads remote loads, so
        // staleness from wire latency lands directly on its choices.
        strategy: StrategyKind::SmartNeighbor,
        ..ProtocolSimConfig::default()
    }
}

struct Row {
    label: String,
    stabilize: String,
    gini: f64,
    runtime_factor: f64,
    net_msgs: u64,
    wire_msgs: u64,
    lookup_p50: f64,
    lookup_p99: f64,
    timeouts: u64,
}

impl Row {
    fn push_into(self, table: &mut Table) {
        table.push_row(vec![
            self.label,
            self.stabilize,
            f3(self.gini),
            f3(self.runtime_factor),
            self.net_msgs.to_string(),
            self.wire_msgs.to_string(),
            f3(self.lookup_p50),
            f3(self.lookup_p99),
            self.timeouts.to_string(),
        ]);
    }
}

fn event_row(cfg: &EventSimConfig, seed: u64, label: String) -> Row {
    let run = run_event_sim(cfg, seed);
    let mut lats = run.lookup_latencies.clone();
    lats.sort_unstable();
    Row {
        label,
        stabilize: cfg.event.stabilize_every.to_string(),
        gini: gini(&run.tasks_done),
        runtime_factor: run.runtime_factor,
        net_msgs: run.messages.total(),
        wire_msgs: run.wire.total(),
        lookup_p50: percentile_sorted(&lats, 50.0),
        lookup_p99: percentile_sorted(&lats, 99.0),
        timeouts: run.lookup_timeouts,
    }
}

/// Decision quality across the latency axis: the synchronous protocol
/// reference, the degenerate (zero-latency) event run pinned to it,
/// and real latencies crossed with stabilization cadences.
pub fn eventtime(args: &Args) {
    outln!("eventtime: decision quality vs message latency (event substrate)");
    let seed = args.seed ^ 0xE7;
    let mut table = Table::new(vec![
        "substrate / latency",
        "stabilize every",
        "final gini",
        "runtime factor",
        "net msgs",
        "wire msgs",
        "lookup p50",
        "lookup p99",
        "lookup timeouts",
    ]);

    // The synchronous reference: instant replies, omniscient wire.
    let proto = run_protocol_sim(&proto_cfg(), seed);
    Row {
        label: "protocol (sync)".to_string(),
        stabilize: "-".to_string(),
        gini: gini(&proto.tasks_done),
        runtime_factor: proto.runtime_factor,
        net_msgs: proto.messages.total(),
        wire_msgs: 0,
        lookup_p50: 0.0,
        lookup_p99: 0.0,
        timeouts: 0,
    }
    .push_into(&mut table);
    outln!(
        "  protocol (sync): gini {:.3}, factor {:.3}, {} ticks",
        gini(&proto.tasks_done),
        proto.runtime_factor,
        proto.ticks
    );

    // The degenerate anchor plus the measured latency sweep, each
    // latency crossed with a fast and a slow stabilization cadence.
    for latency in [0u64, 10, 40] {
        for stabilize_every in [50u64, 200] {
            // At zero latency the cadence cannot matter (the degenerate
            // path stabilizes synchronously); one row suffices.
            if latency == 0 && stabilize_every != 50 {
                continue;
            }
            let cfg = EventSimConfig {
                proto: proto_cfg(),
                event: EventConfig {
                    latency,
                    stabilize_every,
                    ..EventConfig::default()
                },
                ..EventSimConfig::default()
            };
            let label = if latency == 0 {
                "event latency=0 (degenerate)".to_string()
            } else {
                format!("event latency={latency}")
            };
            if latency == 0 {
                // Live parity anchor: same decisions, same schedule.
                let run = run_event_sim(&cfg, seed);
                assert_eq!(
                    run.ticks, proto.ticks,
                    "degenerate event run left the protocol schedule"
                );
                assert_eq!(run.sybils_created, proto.sybils_created);
                assert_eq!(run.tasks_done, proto.tasks_done);
            }
            let row = event_row(&cfg, seed, label);
            outln!(
                "  latency {latency:>3} stabilize {stabilize_every:>3}: gini {:.3}, factor {:.3}, wire {} msgs, p99 {:.0}, timeouts {}",
                row.gini, row.runtime_factor, row.wire_msgs, row.lookup_p99, row.timeouts
            );
            row.push_into(&mut table);
        }
    }

    // The measurement row: a faulty wire. Lost queries strand probes
    // until the retry budget or probe timeout fires, so checks decide
    // on partial information — here decision quality finally diverges
    // from the synchronous reference.
    let lossy = EventSimConfig {
        proto: ProtocolSimConfig {
            fault: autobal_chord::FaultPlan {
                seed: seed ^ 0x10,
                loss_rate: 0.05,
                ..autobal_chord::FaultPlan::default()
            },
            ..proto_cfg()
        },
        event: EventConfig {
            latency: 10,
            stabilize_every: 200,
            ..EventConfig::default()
        },
        ..EventSimConfig::default()
    };
    let row = event_row(&lossy, seed, "event latency=10 loss=5%".to_string());
    outln!(
        "  latency  10 loss 5%: gini {:.3}, factor {:.3}, wire {} msgs, p99 {:.0}, timeouts {}",
        row.gini,
        row.runtime_factor,
        row.wire_msgs,
        row.lookup_p99,
        row.timeouts
    );
    row.push_into(&mut table);

    write_table(&args.out, "eventtime", &table);
}
