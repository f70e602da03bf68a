//! `metrics` — the streaming metrics plane end to end: record the same
//! seeded run on all three substrates with ring slots on, dump the
//! integer-only sample streams as JSONL (the `autobal-monitor` input),
//! and derive the per-sample CSV, the Prometheus text exposition, and
//! a ring-heat SVG snapshot.

use crate::common::{write_out, Args};
use crate::ringview::{ring_heat_svg, ring_marks};
use autobal::event_sim::{run_event_sim, EventSimConfig};
use autobal::protocol_sim::{run_protocol_sim, ProtocolSimConfig};
use autobal_core::{Sim, StrategyKind};
use autobal_metrics::expo::{render_exposition, validate_exposition};
use autobal_metrics::sample::{timeseries_csv, to_jsonl};
use autobal_telemetry::outln;

const NODES: usize = 16;
const TASKS: u64 = 800;

pub fn metrics(args: &Args) {
    outln!("metrics: streaming sample streams on all three substrates ({NODES}n/{TASKS}t)");

    let pcfg = ProtocolSimConfig {
        nodes: NODES,
        tasks: TASKS,
        strategy: StrategyKind::RandomInjection,
        check_interval: 1,
        record_metrics: true,
        metrics_interval: Some(1),
        metrics_ring: true,
        ..ProtocolSimConfig::default()
    };

    // Oracle ring: one sweep of the workers' cached loads per sample.
    let oracle = Sim::new(pcfg.sim_config(), args.seed).run();

    // Chord protocol: the same sweep, plus message-fate counters.
    let chord = run_protocol_sim(&pcfg, args.seed);

    // Event-time substrate: samples stamped with the event clock.
    let event = run_event_sim(
        &EventSimConfig {
            proto: pcfg,
            ..EventSimConfig::default()
        },
        args.seed,
    );

    outln!(
        "  samples: oracle {} | chord {} | event {}",
        oracle.metrics.len(),
        chord.metrics.len(),
        event.metrics.len()
    );
    write_out(
        &args.out,
        "metrics_oracle.jsonl",
        &to_jsonl(&oracle.metrics),
    );
    write_out(&args.out, "metrics_chord.jsonl", &to_jsonl(&chord.metrics));
    write_out(&args.out, "metrics_event.jsonl", &to_jsonl(&event.metrics));

    // Derived artifacts, shared with `autobal-trace timeseries/export`.
    write_out(
        &args.out,
        "metrics_timeseries.csv",
        &timeseries_csv(&chord.metrics),
    );
    if let Some(last) = chord.metrics.last() {
        let expo = render_exposition(last);
        validate_exposition(&expo).expect("exposition self-validates");
        write_out(&args.out, "metrics_exposition.txt", &expo);
    }
    let latest = chord.metrics.last();
    let svg = ring_heat_svg(latest, &ring_marks(latest));
    write_out(&args.out, "metrics_ring.svg", &svg);
}
