//! The unified telemetry plane, tested end to end across substrates:
//! same-seed traces are byte-identical, trace bytes do not depend on
//! how many threads the harness runs (`--test-threads=1` vs default),
//! the committed golden fixture pins the wire schema, and the
//! `autobal-trace`-style diff reports the first causal divergence
//! between the oracle and Chord substrates with worker and tick.

use autobal::chord::EventConfig;
use autobal::event_sim::{run_event_sim, run_event_sim_with_placement, EventSimConfig};
use autobal::protocol_sim::{run_protocol_sim, run_protocol_sim_with_placement, ProtocolSimConfig};
use autobal::sim::{Sim, SimConfig, StrategyKind};
use autobal::stats::rng::{domains, substream, DetRng};
use autobal::Id;
use autobal_telemetry::{
    check_framing, diff_traces, parse_jsonl, render_divergence, summarize, to_jsonl,
    validate_jsonl, Divergence, TraceBody,
};
use rayon::prelude::*;
use std::path::PathBuf;

const NODES: usize = 16;
const TASKS: u64 = 800;
const SEED: u64 = 41;

/// The `tests/differential.rs` starting conditions: half the ring
/// starts empty, so the first check tick produces decisions on
/// bit-identical local views.
fn placement() -> (Vec<Id>, Vec<Id>) {
    let mut rng: DetRng = substream(0xD1FF, 0, domains::PLACEMENT);
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

/// Random injection checking every tick, traced; the oracle ring runs
/// its [`ProtocolSimConfig::sim_config`] twin.
fn chord_cfg() -> ProtocolSimConfig {
    ProtocolSimConfig {
        nodes: NODES,
        tasks: TASKS,
        strategy: StrategyKind::RandomInjection,
        check_interval: 1,
        record_trace: true,
        ..ProtocolSimConfig::default()
    }
}

fn oracle_jsonl(seed: u64) -> String {
    let (ids, keys) = placement();
    let res = Sim::with_placement(chord_cfg().sim_config(), seed, ids, keys).run();
    to_jsonl(res.trace.records())
}

fn chord_jsonl(seed: u64) -> String {
    let (ids, keys) = placement();
    let res = run_protocol_sim_with_placement(&chord_cfg(), seed, ids, keys);
    to_jsonl(res.trace.records())
}

#[test]
fn same_seed_traces_are_byte_identical_on_both_substrates() {
    let a = oracle_jsonl(SEED);
    let b = oracle_jsonl(SEED);
    assert!(!a.is_empty());
    assert_eq!(a, b, "oracle trace must be byte-stable across runs");

    let c = chord_jsonl(SEED);
    let d = chord_jsonl(SEED);
    assert!(!c.is_empty());
    assert_eq!(c, d, "chord trace must be byte-stable across runs");

    // Both dumps are well-formed on the wire and well-framed in memory.
    for text in [&a, &c] {
        let n = validate_jsonl(text).expect("trace validates against the schema");
        let records = parse_jsonl(text).expect("trace parses");
        assert_eq!(records.len(), n);
        check_framing(&records).expect("trace is well-framed");
        assert_eq!(to_jsonl(&records), *text, "parse/serialize round-trips");
    }
}

#[test]
fn trace_bytes_do_not_depend_on_thread_count() {
    // The recorder stamps virtual time from a single-threaded event
    // loop, so the bytes cannot depend on scheduling — this is what
    // makes `--test-threads=1` and the default parallel harness agree.
    // Strongest in-process form: the same four seeded runs, executed
    // serially and on the rayon pool, produce identical dumps.
    let seeds: Vec<u64> = (0..4).map(|i| SEED + i).collect();
    let serial: Vec<String> = seeds.iter().map(|&s| oracle_jsonl(s)).collect();
    let parallel: Vec<String> = seeds.into_par_iter().map(oracle_jsonl).collect();
    assert_eq!(serial, parallel, "thread count leaked into trace bytes");
}

#[test]
fn golden_trace_pins_the_wire_schema() {
    // A small pinned run whose JSONL is committed at
    // `tests/data/golden_trace.jsonl`. Any schema or determinism drift
    // shows up as a byte diff here. Regenerate deliberately with:
    //     UPDATE_GOLDEN=1 cargo test --test trace_plane golden
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/data/golden_trace.jsonl");
    let fresh = {
        let res = Sim::new(
            SimConfig {
                nodes: 6,
                tasks: 60,
                strategy: StrategyKind::RandomInjection,
                check_interval: 1,
                record_trace: true,
                ..SimConfig::default()
            },
            0x601D,
        )
        .run();
        to_jsonl(res.trace.records())
    };
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &fresh).expect("write golden");
    }
    let committed = std::fs::read_to_string(&path).expect("golden fixture committed");
    assert_eq!(
        fresh, committed,
        "trace wire format drifted from the golden fixture; \
         regenerate with UPDATE_GOLDEN=1 if the change is intentional"
    );

    // The fixture itself honors the schema and the framing invariants.
    validate_jsonl(&committed).expect("golden validates");
    let records = parse_jsonl(&committed).expect("golden parses");
    check_framing(&records).expect("golden is well-framed");
    assert!(matches!(
        records.first().map(|r| &r.body),
        Some(TraceBody::RunStart { substrate, .. }) if substrate == "oracle"
    ));
    assert!(matches!(
        records.last().map(|r| &r.body),
        Some(TraceBody::RunEnd { completed: true })
    ));
}

#[test]
fn golden_event_trace_pins_the_wire_schema() {
    // The event-time sibling of `golden_trace_pins_the_wire_schema`:
    // the same small pinned run, executed on the asynchronous overlay
    // under real (default) message latency, committed at
    // `tests/data/golden_event_trace.jsonl`. Any drift in the event
    // loop's timer cadence, wire billing, or retry accounting moves
    // these bytes. Regenerate deliberately with:
    //     UPDATE_GOLDEN=1 cargo test --test trace_plane golden
    let path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/data/golden_event_trace.jsonl");
    let fresh = {
        let res = run_event_sim(
            &EventSimConfig {
                proto: ProtocolSimConfig {
                    nodes: 6,
                    tasks: 60,
                    strategy: StrategyKind::RandomInjection,
                    check_interval: 1,
                    record_trace: true,
                    ..ProtocolSimConfig::default()
                },
                ..EventSimConfig::default()
            },
            0x601D,
        );
        to_jsonl(res.trace.records())
    };
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &fresh).expect("write golden");
    }
    let committed = std::fs::read_to_string(&path).expect("golden fixture committed");
    assert_eq!(
        fresh, committed,
        "event trace drifted from the golden fixture; \
         regenerate with UPDATE_GOLDEN=1 if the change is intentional"
    );

    validate_jsonl(&committed).expect("golden validates");
    let records = parse_jsonl(&committed).expect("golden parses");
    check_framing(&records).expect("golden is well-framed");
    assert!(matches!(
        records.first().map(|r| &r.body),
        Some(TraceBody::RunStart { substrate, .. }) if substrate == "event"
    ));
    assert!(matches!(
        records.last().map(|r| &r.body),
        Some(TraceBody::RunEnd { completed: true })
    ));
}

#[test]
fn golden_byzantine_trace_pins_the_adversary_vocabulary() {
    // Third golden fixture: a small pinned run with Byzantine reporters
    // AND the cross-checking defense live, committed at
    // `tests/data/golden_byzantine_trace.jsonl`. It pins the adversary
    // telemetry vocabulary — `lied`, `probe_agree`, `probe_conflict`,
    // `quarantined` — on the wire, so any drift in lie application
    // order, relay selection, or suspicion bookkeeping moves these
    // bytes. Regenerate deliberately with:
    //     UPDATE_GOLDEN=1 cargo test --test trace_plane golden
    use autobal::chord::{AdversaryPlan, LiePolicy};
    use autobal_core::strategy::crosscheck::CrossCheckConfig;
    let path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/data/golden_byzantine_trace.jsonl");
    let fresh = {
        let res = run_protocol_sim(
            &ProtocolSimConfig {
                nodes: 8,
                tasks: 120,
                strategy: StrategyKind::SmartNeighbor,
                check_interval: 1,
                record_trace: true,
                // Over-reporting by gain 4 always trips the tolerance
                // check against an honest median, so the fixture is
                // guaranteed to exercise conflicts and quarantines.
                adversary: AdversaryPlan::lying(0x601D, 0.3, LiePolicy::OverReport),
                cross_check: CrossCheckConfig::with_budget(2),
                ..ProtocolSimConfig::default()
            },
            0x601D,
        );
        to_jsonl(res.trace.records())
    };
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &fresh).expect("write golden");
    }
    let committed = std::fs::read_to_string(&path).expect("golden fixture committed");
    assert_eq!(
        fresh, committed,
        "byzantine trace drifted from the golden fixture; \
         regenerate with UPDATE_GOLDEN=1 if the change is intentional"
    );

    validate_jsonl(&committed).expect("golden validates");
    let records = parse_jsonl(&committed).expect("golden parses");
    check_framing(&records).expect("golden is well-framed");
    // The fixture must actually exercise the new vocabulary.
    let decisions: Vec<&str> = records
        .iter()
        .filter_map(|r| match &r.body {
            TraceBody::Decision { name, .. } => Some(name.as_str()),
            _ => None,
        })
        .collect();
    for name in ["lied", "probe_conflict", "quarantined"] {
        assert!(
            decisions.contains(&name),
            "fixture never recorded a `{name}` decision"
        );
    }
    assert!(matches!(
        records.last().map(|r| &r.body),
        Some(TraceBody::RunEnd { completed: true })
    ));
}

#[test]
fn degenerate_event_trace_diffs_clean_against_protocol() {
    // The tentpole's correctness anchor, stated on the telemetry plane:
    // with zero wire latency and inert faults, the event substrate's
    // decision trace diffs clean against the synchronous protocol
    // substrate — `autobal-trace diff` reports zero causal divergence —
    // for every decentralized strategy.
    for kind in [
        StrategyKind::None,
        StrategyKind::RandomInjection,
        StrategyKind::NeighborInjection,
        StrategyKind::SmartNeighbor,
        StrategyKind::Invitation,
    ] {
        let (ids, keys) = placement();
        let mut pcfg = chord_cfg();
        pcfg.strategy = kind;
        let proto = run_protocol_sim_with_placement(&pcfg, SEED, ids.clone(), keys.clone());
        let event = run_event_sim_with_placement(
            &EventSimConfig {
                proto: pcfg,
                event: EventConfig {
                    latency: 0,
                    ..EventConfig::default()
                },
                ..EventSimConfig::default()
            },
            SEED,
            ids,
            keys,
        );
        let div = diff_traces(proto.trace.records(), event.trace.records());
        let report = render_divergence(&div);
        match div {
            Divergence::None { decisions } => {
                // The paper's baseline network decides nothing; every
                // active strategy must produce a nonempty stream.
                assert!(
                    decisions > 0 || kind == StrategyKind::None,
                    "{kind:?}: empty decision stream"
                );
                assert!(report.contains("no divergence"), "{kind:?}: {report}");
            }
            Divergence::Diverged(_) => {
                panic!("{kind:?}: degenerate event run diverged from protocol:\n{report}");
            }
        }
    }
}

#[test]
fn tick_vs_event_diff_localizes_the_latency_skew() {
    // The measurement the event substrate exists for: under real
    // message latency the strategies see stale loads and late replies,
    // so the decision stream eventually leaves the tick-time oracle's.
    // The diff must localize that skew — or report clean agreement —
    // exactly as it does between the two synchronous substrates.
    let (ids, keys) = placement();
    let oracle =
        Sim::with_placement(chord_cfg().sim_config(), SEED, ids.clone(), keys.clone()).run();
    let event = run_event_sim_with_placement(
        &EventSimConfig {
            proto: chord_cfg(),
            ..EventSimConfig::default()
        },
        SEED,
        ids,
        keys,
    );
    let div = diff_traces(oracle.trace.records(), event.trace.records());
    let report = render_divergence(&div);
    match &div {
        Divergence::None { decisions } => {
            assert!(*decisions > 0);
            assert!(report.contains("no divergence"), "{report}");
        }
        Divergence::Diverged(p) => {
            assert!(p.index >= 8, "diverged too early: {report}");
            assert!(
                report.contains("first divergence at decision #"),
                "{report}"
            );
            assert!(report.contains("worker="), "{report}");
            assert!(report.contains("t="), "{report}");
            assert!(report.contains("in span["), "{report}");
        }
    }
}

#[test]
fn diff_reports_first_divergence_with_worker_and_tick() {
    // The acceptance demonstration: diff two same-seed traces from the
    // two substrates. The strategy decisions agree while the local
    // views provably coincide (differential.rs), then task-consumption
    // order skews the key sets — the diff must either report full
    // agreement or name the first divergent decision with its worker,
    // virtual time, and enclosing span.
    let (ids, keys) = placement();
    let oracle =
        Sim::with_placement(chord_cfg().sim_config(), SEED, ids.clone(), keys.clone()).run();
    let chord = run_protocol_sim_with_placement(&chord_cfg(), SEED, ids, keys);

    let div = diff_traces(oracle.trace.records(), chord.trace.records());
    let report = render_divergence(&div);
    match &div {
        Divergence::None { decisions } => {
            assert!(*decisions > 0);
            assert!(report.contains("no divergence"), "{report}");
        }
        Divergence::Diverged(p) => {
            // Both substrates decided in lockstep for a nonempty prefix
            // (8 empty workers act on tick 1), and the report carries
            // the who/when a human needs.
            assert!(p.index >= 8, "diverged too early: {report}");
            assert!(
                report.contains("first divergence at decision #"),
                "{report}"
            );
            assert!(report.contains("worker="), "{report}");
            assert!(report.contains("t="), "{report}");
            assert!(report.contains("in span["), "{report}");
        }
    }
}

#[test]
fn golden_schema_fixture_spans_the_vocabulary() {
    // `tests/data/golden_schema.jsonl` is the lint rule T anchor: it
    // must stay a valid trace AND mention every decision name and
    // message status, so a vocabulary change forces the fixture (and
    // therefore this test plus the lint gate) to move in lockstep.
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/data/golden_schema.jsonl");
    let text = std::fs::read_to_string(&path).expect("golden schema fixture committed");
    let n = validate_jsonl(&text).expect("golden schema validates");
    let records = parse_jsonl(&text).expect("golden schema parses");
    assert_eq!(records.len(), n);
    check_framing(&records).expect("golden schema is well-framed");

    let summary = summarize(&records);
    let names = [
        "sybil_created",
        "sybils_retired",
        "worker_left",
        "worker_crashed",
        "worker_joined",
        "invitation_sent",
        "invitation_refused",
        "invitation_honored",
        "load_queried",
        "neighbor_gap_split",
        "lied",
        "probe_agree",
        "probe_conflict",
        "quarantined",
    ];
    for name in names {
        assert_eq!(
            summary.decisions_by_name.get(name),
            Some(&1),
            "decision name `{name}` missing from the golden schema fixture"
        );
    }
    assert_eq!(summary.decisions, names.len() as u64);
    assert_eq!(summary.messages.delivered, 1);
    assert_eq!(summary.messages.dropped, 1);
    assert_eq!(summary.messages.timed_out, 1);
    assert_eq!(summary.messages.unreachable, 1);
    assert!(summary.completed);
}
