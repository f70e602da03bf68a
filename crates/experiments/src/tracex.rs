//! `trace` — the unified telemetry plane, end to end: record the same
//! seeded run on the oracle ring and on the real Chord protocol, dump
//! both flight-recorder traces as byte-stable JSONL, derive per-span
//! and per-tick artifacts, and diff the two decision streams for the
//! first causal divergence. A lossy event-driven run feeds the same
//! plane to produce retry/latency histograms.

use crate::common::{gini_series, write_out, Args};
use autobal::protocol_sim::{run_protocol_sim_with_placement, ProtocolSimConfig};
use autobal_chord::{EventConfig, EventNet, FaultPlan};
use autobal_core::{Sim, SimConfig, StrategyKind};
use autobal_id::Id;
use autobal_stats::rng::{domains, substream, DetRng};
use autobal_stats::Histogram;
use autobal_telemetry::{
    diff_traces, render_divergence, render_summary, span_breakdown_csv, summarize, to_jsonl,
    TraceBody,
};

const NODES: usize = 16;
const TASKS: u64 = 800;

/// Seed of the pinned golden trace — deliberately independent of
/// `--seed` so CI can diff against a committed fixture no matter how
/// the run was invoked.
const PINNED_SEED: u64 = 0x601D;

/// Matched starting conditions (the `tests/differential.rs` idiom):
/// explicit node ids, every task key owned by half the ring, so both
/// substrates face identical local views on the first check tick.
fn placement(seed: u64) -> (Vec<Id>, Vec<Id>) {
    let mut rng: DetRng = substream(seed, 0, domains::PLACEMENT);
    let mut ids: Vec<Id> = Vec::new();
    while ids.len() < NODES {
        let id = Id::random(&mut rng);
        if !ids.contains(&id) {
            ids.push(id);
        }
    }
    let mut sorted = ids.clone();
    sorted.sort();
    let loaded: Vec<Id> = sorted.iter().copied().step_by(2).collect();
    let owner = |key: Id| -> Id {
        sorted
            .iter()
            .copied()
            .find(|&n| key <= n)
            .unwrap_or(sorted[0])
    };
    let mut keys = Vec::new();
    while (keys.len() as u64) < TASKS {
        let k = Id::random(&mut rng);
        if loaded.contains(&owner(k)) {
            keys.push(k);
        }
    }
    (ids, keys)
}

fn histogram_csv(values: &[u64]) -> String {
    let max = values.iter().copied().max().unwrap_or(0);
    let width = (max / 20).max(1);
    let bins = (max / width + 2) as usize;
    let mut csv = String::from("lo,hi,count\n");
    for (lo, hi, count) in Histogram::build(values, 0, width, bins).rows() {
        csv.push_str(&format!("{lo},{hi},{count}\n"));
    }
    csv
}

pub fn trace(args: &Args) {
    println!("trace: unified telemetry plane (oracle vs chord, {NODES}n/{TASKS}t)");
    let (ids, keys) = placement(args.seed);

    // This target exists to produce traces, so recording is always on;
    // the metrics plane supplies the per-tick Gini series.
    let pcfg = ProtocolSimConfig {
        nodes: NODES,
        tasks: TASKS,
        strategy: StrategyKind::RandomInjection,
        check_interval: 1,
        record_trace: true,
        ..ProtocolSimConfig::default()
    };
    let ocfg = SimConfig {
        record_metrics: true,
        metrics_interval: Some(1),
        ..pcfg.sim_config()
    };
    let oracle = Sim::with_placement(ocfg, args.seed, ids.clone(), keys.clone()).run();
    let chord = run_protocol_sim_with_placement(&pcfg, args.seed, ids, keys);

    // Raw flight-recorder dumps (byte-stable JSONL).
    write_out(
        &args.out,
        "trace_oracle.jsonl",
        &to_jsonl(oracle.trace.records()),
    );
    write_out(
        &args.out,
        "trace_chord.jsonl",
        &to_jsonl(chord.trace.records()),
    );

    // Human summaries and per-span message breakdowns.
    let os = summarize(oracle.trace.records());
    let cs = summarize(chord.trace.records());
    println!(
        "  oracle: {} records, {} spans, {} decisions",
        os.records, os.spans, os.decisions
    );
    println!(
        "  chord:  {} records, {} spans, {} decisions",
        cs.records, cs.spans, cs.decisions
    );
    write_out(&args.out, "trace_oracle_summary.txt", &render_summary(&os));
    write_out(&args.out, "trace_chord_summary.txt", &render_summary(&cs));
    write_out(
        &args.out,
        "trace_oracle_spans.csv",
        &span_breakdown_csv(oracle.trace.records()),
    );
    write_out(
        &args.out,
        "trace_chord_spans.csv",
        &span_breakdown_csv(chord.trace.records()),
    );

    // Per-tick balance quality of the traced run, through crates/viz.
    let mut gini_chart =
        autobal_viz::LineChart::new("Gini over time of the traced run (oracle substrate)");
    gini_chart.y_label = "gini".into();
    gini_chart.push_series("random", gini_series(&oracle.metrics));
    write_out(&args.out, "trace_gini.svg", &gini_chart.to_svg());

    // Divergence diagnosis across the substrates.
    let div = diff_traces(oracle.trace.records(), chord.trace.records());
    let report = render_divergence(&div);
    println!("  diff: {}", report.lines().next().unwrap_or(""));
    write_out(&args.out, "trace_diff.txt", &report);

    // Retry/latency histograms from a traced lossy event-driven run —
    // the third substrate feeding the same plane, through crates/stats.
    let mut rng: DetRng = substream(args.seed, 1, domains::PLACEMENT);
    let mut net = EventNet::bootstrap(EventConfig::default(), 64, &mut rng);
    net.enable_trace(args.seed);
    net.set_fault_plan(FaultPlan::lossy(args.seed, 0.10));
    let origin = net.node_ids().first().copied().expect("nonempty ring");
    let mut reqs = Vec::new();
    for _ in 0..200 {
        let key = Id::random(&mut rng);
        if let Some(r) = net.lookup(origin, key) {
            reqs.push(r);
        }
    }
    net.run_until(30_000);
    let done: Vec<_> = net
        .drain_completed()
        .filter(|l| reqs.contains(&l.req))
        .collect();
    let latencies: Vec<u64> = done
        .iter()
        .filter(|l| l.owner.is_some())
        .map(|l| l.latency)
        .collect();
    let retries: Vec<u64> = net
        .trace()
        .records()
        .iter()
        .filter_map(|r| match &r.body {
            TraceBody::Message { retries, .. } => Some(*retries),
            _ => None,
        })
        .collect();
    println!(
        "  eventnet: {} lookups resolved, {} latency samples, {} traced messages",
        done.len(),
        latencies.len(),
        retries.len()
    );
    // The raw eventnet trace is dominated by maintenance traffic and
    // gets huge; the histograms are its derived artifacts.
    write_out(
        &args.out,
        "trace_latency_hist.csv",
        &histogram_csv(&latencies),
    );
    write_out(&args.out, "trace_retry_hist.csv", &histogram_csv(&retries));

    // Pinned-seed golden trace for the CI byte-compare.
    let pinned = Sim::new(
        SimConfig {
            nodes: 12,
            tasks: 240,
            strategy: StrategyKind::RandomInjection,
            check_interval: 1,
            record_trace: true,
            ..SimConfig::default()
        },
        PINNED_SEED,
    )
    .run();
    write_out(
        &args.out,
        "trace_pinned.jsonl",
        &to_jsonl(pinned.trace.records()),
    );
}
