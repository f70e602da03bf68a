//! The streaming metrics plane, tested end to end across substrates:
//! every sample conserves tasks (the load gauges, swept from the
//! workers' load caches, add up to the backlog) on all three
//! substrates under churn and faults, same-seed metrics JSONL is
//! byte-identical and independent of harness thread count, the
//! committed golden fixture pins the sample wire schema, and every
//! dump renders a valid Prometheus exposition.

use autobal::chord::FaultPlan;
use autobal::event_sim::{run_event_sim, EventSimConfig};
use autobal::protocol_sim::{run_protocol_sim, ProtocolSimConfig};
use autobal::sim::{Sim, SimConfig, StrategyKind};
use autobal_metrics::expo::{render_exposition, validate_exposition};
use autobal_metrics::names as metric_names;
use autobal_metrics::sample::{parse_jsonl, timeseries_csv, to_jsonl, validate_samples};
use autobal_metrics::MetricsSample;
use rayon::prelude::*;
use std::path::PathBuf;

const SEED: u64 = 41;

fn oracle_cfg() -> SimConfig {
    SimConfig {
        nodes: 16,
        tasks: 800,
        strategy: StrategyKind::RandomInjection,
        check_interval: 1,
        churn_rate: 0.02,
        record_metrics: true,
        metrics_interval: Some(1),
        metrics_ring: true,
        ..SimConfig::default()
    }
}

fn chord_cfg() -> ProtocolSimConfig {
    ProtocolSimConfig {
        nodes: 16,
        tasks: 800,
        strategy: StrategyKind::RandomInjection,
        check_interval: 1,
        record_metrics: true,
        metrics_interval: Some(1),
        metrics_ring: true,
        ..ProtocolSimConfig::default()
    }
}

fn oracle_jsonl(seed: u64) -> String {
    to_jsonl(&Sim::new(oracle_cfg(), seed).run().metrics)
}

fn chord_jsonl(seed: u64) -> String {
    to_jsonl(&run_protocol_sim(&chord_cfg(), seed).metrics)
}

fn event_jsonl(seed: u64) -> String {
    let cfg = EventSimConfig {
        proto: chord_cfg(),
        ..EventSimConfig::default()
    };
    to_jsonl(&run_event_sim(&cfg, seed).metrics)
}

/// Asserts, for every sample of a run, that the summed worker loads
/// equal the backlog and that no more workers idle than are active,
/// and that each of the `disturbances` counters fired during the run
/// (a lossy link shows up as retries in the `msg_retries` sum).
fn assert_tasks_conserved(run: &str, samples: &[MetricsSample], disturbances: &[&str]) {
    let last = samples
        .last()
        .unwrap_or_else(|| panic!("{run}: no samples recorded"));
    for &name in disturbances {
        let fired = match name {
            metric_names::MSG_RETRIES => last.hist(name).map(|h| h.sum),
            _ => last.counter(name),
        };
        assert!(fired > Some(0), "{run}: no `{name}` recorded");
    }
    for s in samples {
        let gauge = |name| s.gauge(name).expect("gauge in every sample");
        assert_eq!(
            gauge(metric_names::LOAD_TOTAL),
            gauge(metric_names::TASKS_REMAINING),
            "{run}: load total differs from the backlog at t={}",
            s.time
        );
        assert!(
            gauge(metric_names::WORKERS_IDLE) <= gauge(metric_names::WORKERS_ACTIVE),
            "{run}: more idle than active workers at t={}",
            s.time
        );
    }
}

#[test]
fn every_sample_conserves_tasks_under_churn_and_faults() {
    for strategy in [
        StrategyKind::RandomInjection,
        StrategyKind::SmartNeighbor,
        StrategyKind::Invitation,
    ] {
        let oracle = Sim::new(
            SimConfig {
                strategy,
                churn_rate: 0.01,
                virtual_nodes_per_worker: 2,
                metrics_ring: false,
                ..oracle_cfg()
            },
            SEED,
        )
        .run();
        assert_tasks_conserved(
            &format!("oracle/{strategy:?}"),
            &oracle.metrics,
            &[metric_names::WORKER_LEFT, metric_names::WORKER_JOINED],
        );

        let proto = ProtocolSimConfig {
            strategy,
            churn_rate: 0.01,
            crash_rate: 0.1,
            crash_retirement: true,
            fault: FaultPlan::lossy(SEED, 0.05),
            metrics_ring: false,
            ..chord_cfg()
        };
        let chord = run_protocol_sim(&proto, SEED);
        let faults = [
            metric_names::WORKER_LEFT,
            metric_names::WORKER_CRASHED,
            metric_names::MSG_RETRIES,
        ];
        assert_tasks_conserved(&format!("chord/{strategy:?}"), &chord.metrics, &faults);
        let event = run_event_sim(
            &EventSimConfig {
                proto,
                ..EventSimConfig::default()
            },
            SEED,
        );
        assert_tasks_conserved(&format!("event/{strategy:?}"), &event.metrics, &faults);
    }
}

#[test]
fn same_seed_metrics_are_byte_identical_on_all_substrates() {
    for (name, dump) in [
        ("oracle", oracle_jsonl as fn(u64) -> String),
        ("chord", chord_jsonl),
        ("event", event_jsonl),
    ] {
        let a = dump(SEED);
        let b = dump(SEED);
        assert!(!a.is_empty(), "{name}: no samples recorded");
        assert_eq!(a, b, "{name}: metrics JSONL must be byte-stable");
        let samples = parse_jsonl(&a).expect("samples parse");
        validate_samples(&samples).expect("samples validate");
        assert_eq!(to_jsonl(&samples), a, "{name}: parse/serialize round-trips");
    }
}

#[test]
fn metrics_bytes_do_not_depend_on_thread_count() {
    // The sample stream is integer-only and stamped from the virtual
    // clock, so harness parallelism cannot move a byte: the same four
    // seeded runs, executed serially and on the rayon pool, must agree
    // on every substrate.
    for dump in [oracle_jsonl as fn(u64) -> String, chord_jsonl, event_jsonl] {
        let seeds: Vec<u64> = (0..4).map(|i| SEED + i).collect();
        let serial: Vec<String> = seeds.iter().map(|&s| dump(s)).collect();
        let parallel: Vec<String> = seeds.into_par_iter().map(dump).collect();
        assert_eq!(serial, parallel, "thread count leaked into metrics bytes");
    }
}

#[test]
fn final_sample_agrees_with_the_run_summary() {
    let run = run_protocol_sim(&chord_cfg(), SEED);
    let last = run.metrics.last().expect("at least one sample");
    assert_eq!(
        last.counter(metric_names::TICKS),
        Some(run.ticks),
        "ticks counter disagrees with the run result"
    );
    assert_eq!(
        last.gauge(metric_names::TASKS_REMAINING),
        Some(0),
        "completed run must sample an empty backlog"
    );
    assert!(last.counter(metric_names::TASKS_DONE).unwrap_or(0) >= 800);
    assert!(!last.ring.is_empty(), "metrics_ring must record ring slots");
}

#[test]
fn golden_metrics_pins_the_sample_schema() {
    // A small pinned run whose metrics JSONL is committed at
    // `tests/data/golden_metrics.jsonl`. This is also the lint rule T
    // anchor for the metric-name vocabulary: the registry emits every
    // declared series in every sample, so any name change moves these
    // bytes. Regenerate deliberately with:
    //     UPDATE_GOLDEN=1 cargo test --test metrics_plane golden
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/data/golden_metrics.jsonl");
    let fresh = {
        let res = Sim::new(
            SimConfig {
                nodes: 6,
                tasks: 60,
                strategy: StrategyKind::RandomInjection,
                check_interval: 1,
                record_metrics: true,
                metrics_interval: Some(1),
                metrics_ring: true,
                ..SimConfig::default()
            },
            0x601D,
        )
        .run();
        to_jsonl(&res.metrics)
    };
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &fresh).expect("write golden");
    }
    let committed = std::fs::read_to_string(&path).expect("golden fixture committed");
    assert_eq!(
        fresh, committed,
        "metrics wire format drifted from the golden fixture; \
         regenerate with UPDATE_GOLDEN=1 if the change is intentional"
    );

    // The fixture honors the schema and spans the registry vocabulary.
    let samples = parse_jsonl(&committed).expect("golden parses");
    validate_samples(&samples).expect("golden validates");
    let first = samples.first().expect("nonempty");
    for &(name, kind, _) in autobal_metrics::names::ALL {
        let present = match kind {
            autobal_metrics::registry::Kind::Counter => first.counter(name).is_some(),
            autobal_metrics::registry::Kind::Gauge => first.gauge(name).is_some(),
            autobal_metrics::registry::Kind::Histogram => first.hist(name).is_some(),
        };
        assert!(present, "metric `{name}` missing from the golden fixture");
    }
}

#[test]
fn every_dump_renders_a_valid_exposition() {
    for (name, text) in [
        ("oracle", oracle_jsonl(SEED)),
        ("chord", chord_jsonl(SEED)),
        ("event", event_jsonl(SEED)),
    ] {
        let samples = parse_jsonl(&text).expect("samples parse");
        let last = samples.last().expect("nonempty");
        let expo = render_exposition(last);
        validate_exposition(&expo).unwrap_or_else(|e| panic!("{name}: invalid exposition: {e}"));
        // And the CSV derivation covers every sample.
        let csv = timeseries_csv(&samples);
        assert_eq!(csv.lines().count(), samples.len() + 1, "{name}: csv rows");
    }
}
