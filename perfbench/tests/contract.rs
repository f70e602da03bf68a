//! Self-tests of the benchmark: its metric names, its agreement with
//! `BENCHMARK.json`, and smoke runs of every workload at a tiny size.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use autobal_perfbench::report::{MetricDef, END_TO_END, PER_LAYER};
use autobal_perfbench::traced::run_traced;
use autobal_perfbench::untraced::run_untraced;
use autobal_perfbench::workloads::WORKLOADS;
use serde_json::Value;

/// The end-to-end metrics the benchmark's definition names.
const NAMED_END_TO_END: [&str; 6] = [
    "setup_s",
    "tasks_per_s",
    "runtime_factor",
    "msgs_per_task",
    "peak_rss_mib",
    "failed_share",
];

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn entries<'a>(json: &'a Value, key: &str) -> &'a Vec<Value> {
    json.get(key)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json lacks the {key} list"))
}

fn field<'a>(entry: &'a Value, key: &str) -> &'a str {
    entry
        .get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("entry lacks {key}"))
}

fn is_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
}

#[test]
fn metric_names_and_units_are_well_formed_and_unique() {
    let all: Vec<&MetricDef> = END_TO_END.iter().chain(PER_LAYER).collect();
    for m in &all {
        assert!(is_name(m.name), "bad metric name {:?}", m.name);
        assert!(
            !m.unit.is_empty()
                && m.unit.len() <= 16
                && m.unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
            "bad unit {:?} of {}",
            m.unit,
            m.name
        );
        assert!(m.better == "lower" || m.better == "higher", "{}", m.name);
    }
    let mut names: Vec<&str> = all.iter().map(|m| m.name).collect();
    names.extend(WORKLOADS.iter().map(|w| w.name));
    let count = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), count, "a name is used twice");
}

#[test]
fn benchmark_json_matches_the_catalogue() {
    let json = benchmark_json();
    for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let listed: Vec<(&str, &str, &str)> = entries(&json, key)
            .iter()
            .map(|e| (field(e, "name"), field(e, "unit"), field(e, "better")))
            .collect();
        let ours: Vec<(&str, &str, &str)> =
            defs.iter().map(|d| (d.name, d.unit, d.better)).collect();
        assert_eq!(listed, ours, "{key} differs from src/report.rs");
    }
    for e in entries(&json, "end_to_end") {
        let bound = e.get("bound").and_then(Value::as_f64).expect("bound");
        assert!(
            bound > 0.0 && bound <= 0.25,
            "bound {bound} of {}",
            field(e, "name")
        );
    }
    let setup = entries(&json, "end_to_end")
        .iter()
        .find(|e| field(e, "name") == "setup_s")
        .expect("setup_s is an end-to-end metric");
    assert_eq!(
        (field(setup, "unit"), field(setup, "better")),
        ("s", "lower")
    );
}

#[test]
fn every_named_end_to_end_metric_has_a_unit_and_direction() {
    let json = benchmark_json();
    let listed: Vec<&Value> = entries(&json, "end_to_end")
        .iter()
        .chain(entries(&json, "per_layer"))
        .collect();
    for name in NAMED_END_TO_END {
        let e = listed
            .iter()
            .find(|e| field(e, "name") == name)
            .unwrap_or_else(|| panic!("{name} is missing from BENCHMARK.json"));
        assert!(!field(e, "unit").is_empty(), "{name} has no unit");
        assert!(["lower", "higher"].contains(&field(e, "better")), "{name}");
    }
}

#[test]
fn benchmark_json_records_each_workload_and_its_bypass_cases() {
    let json = benchmark_json();
    let listed = entries(&json, "workloads");
    assert_eq!(listed.len(), WORKLOADS.len());
    for (e, w) in listed.iter().zip(WORKLOADS.iter()) {
        assert_eq!(field(e, "name"), w.name);
        let why = field(e, "why");
        assert_eq!(
            why, w.why,
            "why of {} differs from src/workloads.rs",
            w.name
        );
        assert!(why.len() <= 200 && !why.contains('\n'), "{}", w.name);
        for b in w.bypass {
            assert!(
                why.contains(b),
                "why of {} does not name bypass {b}",
                w.name
            );
        }
    }
}

#[test]
fn tiny_runs_of_every_workload_pass_their_checks_at_two_seeds() {
    for w in WORKLOADS {
        let tiny = w.tiny();
        for seed in [3, 4] {
            let u = run_untraced(&tiny, seed, 0.0);
            assert_eq!(u.failed, 0, "{} seed {seed}: {:?}", w.name, u.problems);
            assert_eq!(u.attempted, tiny.trials + 1, "{} seed {seed}", w.name);
            for (def, v) in u.values.iter() {
                assert!(
                    v.is_finite() && v > 0.0,
                    "{} seed {seed}: {} = {v}",
                    w.name,
                    def.name
                );
            }
            let t = run_traced(&tiny, seed, 0.0);
            assert_eq!(t.failed, 0, "{} seed {seed}: {:?}", w.name, t.problems);
            assert!(t.values.iter().all(|(_, v)| v.is_finite()), "{}", w.name);
            assert!(!t.spans.is_empty());
        }
    }
}
