//! Full-run fingerprints of the oracle ring engine, pinned against a
//! committed fixture (`tests/data/engine_baseline.txt`).
//!
//! The fixture was recorded on the ordered-map engine that preceded the
//! single struct-of-arrays ring, so it is the independent baseline for
//! every strategy — including the Sybil strategies the naive reference
//! simulator does not model. Each cell is one seeded run; its line
//! holds the tick count, the work curve (length, sum and digest), the
//! message counters, the peak vnode count, and a digest of the event
//! log decoded from the trace. The cells cover every strategy plus the centralized oracle
//! under churn, static virtual servers (capacity spills across a
//! worker's vnodes), heterogeneous strength-based consumption, and the
//! no-churn baseline that takes the ledger-detached tick.
//!
//! Every cell must reproduce the fixture. Regenerate deliberately with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test engine_baseline
//! ```

use autobal::sim::trace::event_log;
use autobal::sim::{Heterogeneity, RunResult, Sim, SimConfig, StrategyKind, WorkMeasurement};
use std::path::PathBuf;

/// FNV-1a over a byte stream: a stable, dependency-free digest.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0100_0000_01B3);
    }
    h
}

/// The named cells: `(name, config)`.
fn cells() -> Vec<(String, SimConfig)> {
    let kinds = StrategyKind::ALL
        .iter()
        .copied()
        .chain([StrategyKind::CentralizedOracle]);
    let base = |strategy| SimConfig {
        nodes: 40,
        tasks: 3_000,
        strategy,
        churn_rate: 0.01,
        record_trace: true,
        ..SimConfig::default()
    };
    let mut out = Vec::new();
    for kind in kinds {
        out.push((format!("{}/churn", kind.label()), base(kind)));
        out.push((
            format!("{}/churn/vnodes3", kind.label()),
            SimConfig {
                virtual_nodes_per_worker: 3,
                ..base(kind)
            },
        ));
        out.push((
            format!("{}/churn/het-strength", kind.label()),
            SimConfig {
                heterogeneity: Heterogeneity::Heterogeneous,
                work_measurement: WorkMeasurement::StrengthPerTick,
                ..base(kind)
            },
        ));
        out.push((
            format!("{}/vnodes3/het-strength", kind.label()),
            SimConfig {
                churn_rate: 0.0,
                virtual_nodes_per_worker: 3,
                heterogeneity: Heterogeneity::Heterogeneous,
                work_measurement: WorkMeasurement::StrengthPerTick,
                ..base(kind)
            },
        ));
    }
    // The no-churn baseline: nothing observes worker loads mid-run, so
    // these cells take the ledger-detached tick.
    for (name, heterogeneity, work_measurement) in [
        (
            "none/detached",
            Heterogeneity::Homogeneous,
            WorkMeasurement::OnePerTick,
        ),
        (
            "none/detached/het-strength",
            Heterogeneity::Heterogeneous,
            WorkMeasurement::StrengthPerTick,
        ),
    ] {
        out.push((
            name.to_string(),
            SimConfig {
                churn_rate: 0.0,
                record_trace: false,
                heterogeneity,
                work_measurement,
                ..base(StrategyKind::None)
            },
        ));
    }
    out
}

/// One fixture line for a finished run.
fn fingerprint(name: &str, r: &RunResult) -> String {
    let work_sum: u64 = r.work_per_tick.iter().sum();
    let work_digest = fnv1a(r.work_per_tick.iter().flat_map(|w| w.to_le_bytes()));
    let events = event_log(&r.trace);
    let event_digest = fnv1a(events.iter().flat_map(|e| {
        let (name, worker, pos, value) = e.decision_fields();
        format!("{} {name} {worker} {pos} {value}\n", e.tick()).into_bytes()
    }));
    format!(
        "{name} ticks={} completed={} work_len={} work_sum={work_sum} work={work_digest:016x} \
         peak_vnodes={} final_active={} events={} event_log={event_digest:016x} messages={:?}",
        r.ticks,
        r.completed,
        r.work_per_tick.len(),
        r.peak_vnodes,
        r.final_active_workers,
        events.len(),
        r.messages,
    )
}

fn render() -> String {
    let mut out = String::new();
    for (name, cfg) in cells() {
        let res = Sim::new(cfg, 0xBA5E).run();
        out.push_str(&fingerprint(&name, &res));
        out.push('\n');
    }
    out
}

#[test]
fn every_cell_reproduces_the_recorded_baseline() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/data/engine_baseline.txt");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, render()).expect("write golden");
    }
    let committed = std::fs::read_to_string(&path).expect("baseline fixture committed");
    // Every Sybil strategy planted Sybils in its churn cell, so the
    // fixture pins rings that hold more vnodes than workers.
    for label in ["random", "neighbor", "smart", "invitation", "oracle"] {
        let line = committed
            .lines()
            .find(|l| l.starts_with(&format!("{label}/churn ")))
            .expect("cell present");
        assert!(
            !line.contains("sybils_created: 0,"),
            "{label} cell created no Sybils: {line}"
        );
    }
    let fresh = render();
    for (want, got) in committed.lines().zip(fresh.lines()) {
        assert_eq!(got, want, "engine drifted from the baseline");
    }
    assert_eq!(
        fresh.lines().count(),
        committed.lines().count(),
        "cell set changed; regenerate with UPDATE_GOLDEN=1 if intentional"
    );
}
