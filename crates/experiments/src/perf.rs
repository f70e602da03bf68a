//! `repro perf` — the benchmark/regression plane.
//!
//! Runs pinned end-to-end scenarios on every substrate — the oracle
//! ring (a plain drain, and Sybil churn under `RandomInjection` and
//! `Invitation` in the `oracle_sybil` and `oracle_invitation` rows,
//! which also record the Sybils created and retired, and plain churn at
//! Table II's 1000n/1e6t cell in the `oracle_churn` row, which records
//! the leaves and joins), the synchronous
//! protocol loop, its maintenance cycle (busy, and under churn), lookups
//! and joins, the event-time strategy loop, and the raw eventnet lookup
//! plane — and
//! emits `BENCH_10.json`
//! (schema `autobal-perf-v1`) with wall time and throughput per
//! scenario. The oracle-ring scenario additionally runs
//! the naive pre-optimization reference engine
//! ([`autobal::reference::NaiveSim`]) **in the same process and on the
//! same inputs**, asserts the two engines produce identical results,
//! and reports the measured speedup — so the headline number is never a
//! comparison across machines or commits.
//!
//! The `oracle_scaling` family sweeps worker count on the ring engine
//! (tasks proportional at 100 per worker, drain-phase timing over a
//! shared pre-generated workload). The reduced CI grid is 100k
//! workers; `--full` runs n ∈ {6k, 50k, 100k, 500k, 1M}. Row names keep
//! their `_s1` suffix so committed baselines still gate them.
//!
//! Every row carries the host's `nproc` and the rayon thread count the
//! run used, so a scaling row is never read without its core count.
//!
//! `--baseline PATH` compares this run's throughput against a committed
//! `BENCH_10.json` and fails (exit 1) only on a >2x regression; smaller
//! wobble is expected CI noise. Scenarios absent from the baseline are
//! skipped, so reduced-grid runs can be gated on full-grid baselines;
//! baseline scenarios this run did not produce are listed by name.
//!
//! With the `count-allocs` feature the binary's global allocator counts
//! allocation events and each scenario reports its count; without it
//! the field is `null` and the schema is unchanged.

use crate::common::{write_out, Args};
use autobal::event_sim::{run_event_sim, EventSimConfig};
use autobal::protocol_sim::{run_protocol_sim, ProtocolSimConfig};
use autobal::reference::{NaiveSample, NaiveSim};
use autobal_chord::{EventConfig, EventNet, NetConfig, Network, LOOKUP_TIMEOUT};
use autobal_core::{RunResult, Sim, SimConfig, StrategyKind};
use autobal_stats::rng::{domains, substream, DetRng};
use autobal_telemetry::{errln, outln};
use rand::Rng;
use std::fs;

/// Wall time of `f` in milliseconds, plus its result.
fn wall_ms<R>(f: impl FnOnce() -> R) -> (f64, R) {
    // autobal-lint: allow(determinism, "the perf plane's whole point is wall-clock measurement; results land only in BENCH artifacts, never in paper outputs")
    let t0 = std::time::Instant::now();
    let r = f();
    (t0.elapsed().as_secs_f64() * 1e3, r)
}

/// Allocation events on this thread during `f` (requires the
/// `count-allocs` global allocator), plus `f`'s result.
#[cfg(feature = "count-allocs")]
fn alloc_count<R>(f: impl FnOnce() -> R) -> (Option<u64>, R) {
    let (n, r) = autobal_meminstr::allocation_delta(f);
    (Some(n), r)
}

#[cfg(not(feature = "count-allocs"))]
fn alloc_count<R>(f: impl FnOnce() -> R) -> (Option<u64>, R) {
    (None, f())
}

/// The machine a run measured: available hardware threads and the
/// rayon pool size, stamped into every row.
struct HostStamp {
    nproc: usize,
    threads: usize,
}

impl HostStamp {
    fn current() -> HostStamp {
        HostStamp {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            threads: rayon::current_num_threads(),
        }
    }
}

/// One measured scenario, as serialized into `BENCH_10.json`.
struct Measurement {
    name: String,
    substrate: &'static str,
    /// Scenario family for grouped rows (`"oracle_scaling"`,
    /// `"chord_lookup"`), `null`
    /// for the standalone pinned scenarios.
    group: Option<&'static str>,
    /// Scaling and Sybil rows: the worker count of the cell; Chord
    /// lookup and join rows: the ring's node count.
    workers: Option<u64>,
    /// What `work` counts: `"ticks"`, `"tasks"`, `"events"`,
    /// `"cycles"`, `"lookups"` or `"joins"`.
    units: &'static str,
    work: u64,
    wall_ms: f64,
    /// `work` per second — the regression-gated figure.
    throughput: f64,
    allocations: Option<u64>,
    peak_vnodes: Option<u64>,
    /// Oracle scenario only: the naive reference engine on the same
    /// inputs, same process, same run.
    naive_wall_ms: Option<f64>,
    speedup_vs_naive: Option<f64>,
    /// Sybil rows: Sybils created and retired over the run.
    sybils: Option<(u64, u64)>,
    /// Churn row: workers that left and joined over the run.
    churn: Option<(u64, u64)>,
}

fn opt_u64(v: Option<u64>) -> String {
    v.map_or("null".to_string(), |n| n.to_string())
}

fn opt_f64(v: Option<f64>) -> String {
    v.map_or("null".to_string(), |x| format!("{x:.2}"))
}

fn opt_str(v: Option<&'static str>) -> String {
    v.map_or("null".to_string(), |s| format!("\"{s}\""))
}

impl Measurement {
    fn to_json(&self, host: &HostStamp) -> String {
        format!(
            "    {{\n      \"name\": \"{}\",\n      \"substrate\": \"{}\",\n      \"group\": {},\n      \"workers\": {},\n      \"nproc\": {},\n      \"threads\": {},\n      \"units\": \"{}\",\n      \"work\": {},\n      \"wall_ms\": {:.2},\n      \"throughput\": {:.2},\n      \"allocations\": {},\n      \"peak_vnodes\": {},\n      \"naive_wall_ms\": {},\n      \"speedup_vs_naive\": {},\n      \"sybils_created\": {},\n      \"sybils_retired\": {},\n      \"churn_leaves\": {},\n      \"churn_joins\": {}\n    }}",
            self.name,
            self.substrate,
            opt_str(self.group),
            opt_u64(self.workers),
            host.nproc,
            host.threads,
            self.units,
            self.work,
            self.wall_ms,
            self.throughput,
            opt_u64(self.allocations),
            opt_u64(self.peak_vnodes),
            opt_f64(self.naive_wall_ms),
            opt_f64(self.speedup_vs_naive),
            opt_u64(self.sybils.map(|(created, _)| created)),
            opt_u64(self.sybils.map(|(_, retired)| retired)),
            opt_u64(self.churn.map(|(leaves, _)| leaves)),
            opt_u64(self.churn.map(|(_, joins)| joins)),
        )
    }
}

/// The pinned large-scale oracle-ring scenario: 6 000 workers grinding
/// through 1.2 million tasks in steady state. This keeps the clock on
/// the paths the overhaul rewrote — the per-tick work loop and the pop
/// stream — rather than on churn bookkeeping both engines share. The
/// churn and sampling paths are pinned bit-for-bit by the differential
/// test suite (`tests/ring_reference.rs`) instead.
fn oracle_cfg() -> SimConfig {
    SimConfig {
        nodes: 6_000,
        tasks: 1_200_000,
        strategy: StrategyKind::None,
        churn_rate: 0.0,
        ..SimConfig::default()
    }
}

fn assert_same_outcome(opt: &RunResult, naive: &autobal::reference::NaiveRunResult) {
    assert_eq!(opt.ticks, naive.ticks, "ticks diverged");
    assert_eq!(opt.completed, naive.completed, "completion diverged");
    assert_eq!(
        opt.work_per_tick, naive.work_per_tick,
        "work schedule diverged"
    );
    assert_eq!(
        opt.messages.churn_leaves, naive.churn_leaves,
        "churn leaves diverged"
    );
    assert_eq!(
        opt.messages.churn_joins, naive.churn_joins,
        "churn joins diverged"
    );
    assert_eq!(opt.peak_vnodes, naive.peak_vnodes, "peak vnodes diverged");
    let samples: Vec<NaiveSample> = opt.metrics.iter().map(NaiveSample::of).collect();
    assert_eq!(samples, naive.samples, "metrics samples diverged");
}

/// Repetitions per engine; the minimum wall time is kept. One-shot
/// timings on shared CI machines swing by tens of percent — the
/// best-of-N minimum is the standard noise-robust estimator, and
/// interleaving the two engines decorrelates slow drift.
const ORACLE_REPS: usize = 5;

fn oracle_ring_large(args: &Args) -> Measurement {
    let cfg = oracle_cfg();
    let seed = args.seed ^ 0x5E;
    // Full-size warmup so first-touch page faults and allocator growth
    // land outside every timed repetition.
    let _ = Sim::new(cfg.clone(), seed).run();

    let mut naive_ms = f64::INFINITY;
    let mut opt_ms = f64::INFINITY;
    let mut allocs = None;
    let mut opt_result = None;
    for _ in 0..ORACLE_REPS {
        let (ms, naive) = wall_ms(|| NaiveSim::new(cfg.clone(), seed).run());
        naive_ms = naive_ms.min(ms);
        let (ms, (a, opt)) = wall_ms(|| alloc_count(|| Sim::new(cfg.clone(), seed).run()));
        opt_ms = opt_ms.min(ms);
        allocs = a;
        // Every repetition re-checks equality; the engines are
        // deterministic, so this doubles as a same-run correctness pin.
        assert_same_outcome(&opt, &naive);
        opt_result = Some(opt);
    }
    let opt = opt_result.expect("at least one repetition");

    let speedup = naive_ms / opt_ms;
    outln!(
        "  oracle_ring_large: {} ticks | optimized {:.0} ms ({:.0} ticks/s) | naive {:.0} ms | speedup {:.2}x",
        opt.ticks,
        opt_ms,
        opt.ticks as f64 / (opt_ms / 1e3),
        naive_ms,
        speedup
    );
    Measurement {
        name: "oracle_ring_large".to_string(),
        group: None,
        workers: None,
        substrate: "oracle-ring",
        units: "ticks",
        work: opt.ticks,
        wall_ms: opt_ms,
        throughput: opt.ticks as f64 / (opt_ms / 1e3),
        allocations: allocs,
        peak_vnodes: Some(opt.peak_vnodes as u64),
        naive_wall_ms: Some(naive_ms),
        speedup_vs_naive: Some(speedup),
        sybils: None,
        churn: None,
    }
}

/// Repetitions of the Sybil rows (best-of).
const SYBIL_REPS: usize = 3;

/// The Sybil rows: a Sybil strategy under 0.001 background churn, at
/// 100 tasks per worker — 20k workers (perfbench `sybil`'s size) by
/// default, 100k under `--full`. Placement happens outside the clock.
///
/// - `oracle_sybil`: the paper's headline strategy, `RandomInjection`.
///   Idle workers retire and replant Sybils on every check, so the
///   clock is dominated by vnode inserts and removes splitting and
///   merging task sets.
/// - `oracle_invitation`: `Invitation`. Overloaded workers walk their
///   predecessor lists for idle helpers to invite, so the clock adds
///   those neighbour walks to the Sybil churn.
fn oracle_sybil_rows(args: &Args) -> Vec<Measurement> {
    let workers: u64 = if args.full { 100_000 } else { 20_000 };
    [
        ("oracle_sybil", StrategyKind::RandomInjection, 0x5B),
        ("oracle_invitation", StrategyKind::Invitation, 0x5D),
    ]
    .into_iter()
    .map(|(name, strategy, salt)| sybil_row(name, strategy, workers, args.seed ^ salt))
    .collect()
}

/// Best-of-[`SYBIL_REPS`] full runs of `cfg` at `seed`, placement
/// outside the clock: the best wall time, the last run's allocation
/// count, and the last run's result.
fn best_run(name: &str, cfg: &SimConfig, seed: u64) -> (f64, Option<u64>, RunResult) {
    let mut best_ms = f64::INFINITY;
    let mut allocs = None;
    let mut last = None;
    for _ in 0..SYBIL_REPS {
        let sim = Sim::new(cfg.clone(), seed);
        let (ms, (a, run)) = wall_ms(|| alloc_count(|| sim.run()));
        assert!(run.completed, "{name} did not drain");
        best_ms = best_ms.min(ms);
        allocs = a;
        last = Some(run);
    }
    (best_ms, allocs, last.expect("at least one repetition"))
}

/// An oracle-ring row counted in ticks.
fn ticks_row(
    name: &str,
    workers: u64,
    best_ms: f64,
    allocs: Option<u64>,
    run: &RunResult,
) -> Measurement {
    Measurement {
        name: name.to_string(),
        substrate: "oracle-ring",
        group: None,
        workers: Some(workers),
        units: "ticks",
        work: run.ticks,
        wall_ms: best_ms,
        throughput: run.ticks as f64 / (best_ms / 1e3),
        allocations: allocs,
        peak_vnodes: Some(run.peak_vnodes as u64),
        naive_wall_ms: None,
        speedup_vs_naive: None,
        sybils: None,
        churn: None,
    }
}

fn sybil_row(name: &str, strategy: StrategyKind, workers: u64, seed: u64) -> Measurement {
    let cfg = SimConfig {
        nodes: workers as usize,
        tasks: workers * 100,
        strategy,
        churn_rate: 0.001,
        ..SimConfig::default()
    };
    let (best_ms, allocs, run) = best_run(name, &cfg, seed);
    let (created, retired) = (run.messages.sybils_created, run.messages.sybils_retired);
    outln!(
        "  {name}: n={workers} {} ticks | {created} Sybils created, {retired} retired | {best_ms:.0} ms ({:.0} ticks/s)",
        run.ticks,
        run.ticks as f64 / (best_ms / 1e3)
    );
    Measurement {
        sybils: Some((created, retired)),
        ..ticks_row(name, workers, best_ms, allocs, &run)
    }
}

/// The churn row, `oracle_churn`: Table II's 1000n/1e6t cell at churn
/// rate 0.01 under the `Churn` strategy. No Sybil layer runs, so the
/// clock is the churn pass and the work phase.
fn oracle_churn(args: &Args) -> Measurement {
    let workers = 1_000u64;
    let cfg = SimConfig {
        nodes: workers as usize,
        tasks: 1_000_000,
        strategy: StrategyKind::Churn,
        churn_rate: 0.01,
        ..SimConfig::default()
    };
    let name = "oracle_churn";
    let (best_ms, allocs, run) = best_run(name, &cfg, args.seed ^ 0x5C);
    let (leaves, joins) = (run.messages.churn_leaves, run.messages.churn_joins);
    outln!(
        "  {name}: n={workers} {} ticks | {leaves} leaves, {joins} joins | {best_ms:.0} ms ({:.0} ticks/s)",
        run.ticks,
        run.ticks as f64 / (best_ms / 1e3)
    );
    Measurement {
        churn: Some((leaves, joins)),
        ..ticks_row(name, workers, best_ms, allocs, &run)
    }
}

fn chord_protocol(args: &Args) -> Measurement {
    let cfg = ProtocolSimConfig {
        nodes: 96,
        tasks: 9_600,
        strategy: StrategyKind::RandomInjection,
        churn_rate: 0.01,
        ..ProtocolSimConfig::default()
    };
    let seed = args.seed ^ 0x5F;
    let (first_ms, _) = wall_ms(|| run_protocol_sim(&cfg, seed));
    let (second_ms, (allocs, run)) = wall_ms(|| alloc_count(|| run_protocol_sim(&cfg, seed)));
    let ms = first_ms.min(second_ms);
    outln!(
        "  chord_protocol: {} ticks | {:.0} ms ({:.0} ticks/s)",
        run.ticks,
        ms,
        run.ticks as f64 / (ms / 1e3)
    );
    Measurement {
        name: "chord_protocol".to_string(),
        group: None,
        workers: None,
        substrate: "protocol",
        units: "ticks",
        work: run.ticks,
        wall_ms: ms,
        throughput: run.ticks as f64 / (ms / 1e3),
        allocations: allocs,
        peak_vnodes: None,
        naive_wall_ms: None,
        speedup_vs_naive: None,
        sybils: None,
        churn: None,
    }
}

/// Cycles per timed batch of the `chord_maintenance` rows; the fastest
/// of `MAINTENANCE_BATCHES` batches is kept.
const MAINTENANCE_CYCLES: u64 = 100;
const MAINTENANCE_BATCHES: usize = 3;

/// Synchronous Chord maintenance cycles on a stabilized ring of 128
/// nodes holding 12 800 keys (the `protocol_sync` benchmark's size, no
/// churn), with the traffic a run makes: between two cycles every node
/// consumes its smallest key, as the work phase does each tick (untimed),
/// so each push carries a key set that changed since the last one. Each
/// batch starts from the same warm network. `work` counts cycles, and
/// `allocations` is the count of one such cycle, not of the whole batch.
fn chord_maintenance(args: &Args) -> Measurement {
    maintenance_row(args, "chord_maintenance", |net, _| {
        for id in net.node_ids() {
            if let Some(node) = net.node_mut(id) {
                node.keys.pop_first();
            }
        }
    })
}

/// The `chord_maintenance` ring under churn: between two cycles one
/// random node crashes and a node with a fresh random id joins
/// (untimed), so every timed cycle prunes the references to the dead
/// node and promotes its replicas, the path the quiet and busy cycles
/// never take.
fn chord_maintenance_churn(args: &Args) -> Measurement {
    maintenance_row(args, "chord_maintenance_churn", |net, rng| {
        let ids = net.node_ids();
        let victim = ids[rng.gen_range(0..ids.len())];
        let contact = *ids.iter().find(|&&id| id != victim).expect("two nodes");
        net.fail(victim).expect("a listed node fails");
        net.join(autobal_id::Id::random(rng), contact)
            .expect("a fresh random id joins through a live contact");
    })
}

/// Times `MAINTENANCE_CYCLES` cycles of a warm 128-node ring, running
/// `between` untimed before each; keeps the fastest batch, and counts
/// the allocations of one cycle after one `between`.
fn maintenance_row(
    args: &Args,
    name: &str,
    mut between: impl FnMut(&mut Network, &mut DetRng),
) -> Measurement {
    let warm = || {
        let mut rng = substream(args.seed ^ 0x63, 0, domains::PLACEMENT);
        let mut net = Network::bootstrap(NetConfig::default(), 128, &mut rng);
        for _ in 0..12_800 {
            net.insert_key(autobal_id::Id::random(&mut rng));
        }
        // The first cycles push fresh snapshots and size the list
        // buffers.
        for _ in 0..3 {
            net.maintenance_cycle();
        }
        net
    };
    let mut rng = substream(args.seed ^ 0x63, 0, domains::CHURN);
    let mut net = warm();
    between(&mut net, &mut rng);
    let (allocs, ()) = alloc_count(|| net.maintenance_cycle());
    let mut ms = f64::INFINITY;
    for _ in 0..MAINTENANCE_BATCHES {
        let mut net = warm();
        let mut batch_ms = 0.0;
        for _ in 0..MAINTENANCE_CYCLES {
            between(&mut net, &mut rng);
            batch_ms += wall_ms(|| net.maintenance_cycle()).0;
        }
        ms = ms.min(batch_ms);
    }
    let per_s = MAINTENANCE_CYCLES as f64 / (ms / 1e3);
    outln!(
        "  {name}: {:.3} ms/cycle ({per_s:.0} cycles/s) | {} allocations/cycle",
        ms / MAINTENANCE_CYCLES as f64,
        opt_u64(allocs)
    );
    Measurement {
        name: name.to_string(),
        group: None,
        workers: None,
        substrate: "protocol",
        units: "cycles",
        work: MAINTENANCE_CYCLES,
        wall_ms: ms,
        throughput: per_s,
        allocations: allocs,
        peak_vnodes: None,
        naive_wall_ms: None,
        speedup_vs_naive: None,
        sybils: None,
        churn: None,
    }
}

/// Lookups per timed batch of `chord_lookup`; the fastest of
/// `LOOKUP_BATCHES` batches is kept.
const LOOKUPS: u64 = 20_000;
const LOOKUP_BATCHES: usize = 3;

/// Iterative lookups from random live nodes for random keys on a
/// bootstrapped ring of 256 and of 1 024 nodes: the node-table probe
/// cost of routing. `work` counts lookups, and `allocations` is the
/// count of one batch (each lookup builds its visited path).
fn chord_lookup(args: &Args) -> Vec<Measurement> {
    [256usize, 1_024]
        .into_iter()
        .map(|n| {
            let mut rng = substream(args.seed ^ 0x64, n as u64, domains::PLACEMENT);
            let mut net = Network::bootstrap(NetConfig::default(), n, &mut rng);
            let ids = net.node_ids();
            let queries: Vec<(autobal_id::Id, autobal_id::Id)> = (0..LOOKUPS)
                .map(|_| {
                    let from = ids[rng.gen_range(0..ids.len())];
                    (from, autobal_id::Id::random(&mut rng))
                })
                .collect();
            let mut batch = || -> u64 {
                queries
                    .iter()
                    .map(|&(from, key)| {
                        let hops = net.lookup(from, key).expect("lookup on a stable ring").hops;
                        u64::from(hops)
                    })
                    .sum()
            };
            let (allocs, hops) = alloc_count(&mut batch);
            let mut ms = f64::INFINITY;
            for _ in 0..LOOKUP_BATCHES {
                ms = ms.min(wall_ms(&mut batch).0);
            }
            let per_s = LOOKUPS as f64 / (ms / 1e3);
            outln!(
                "  chord_lookup n={n}: {:.2} hops/lookup | {:.0} ns/lookup ({per_s:.0} lookups/s)",
                hops as f64 / LOOKUPS as f64,
                ms * 1e6 / LOOKUPS as f64
            );
            Measurement {
                name: format!("chord_lookup_n{n}"),
                group: Some("chord_lookup"),
                workers: Some(n as u64),
                substrate: "protocol",
                units: "lookups",
                work: LOOKUPS,
                wall_ms: ms,
                throughput: per_s,
                allocations: allocs,
                peak_vnodes: None,
                naive_wall_ms: None,
                speedup_vs_naive: None,
                sybils: None,
                churn: None,
            }
        })
        .collect()
}

/// Joins timed by `chord_join`.
const JOINS: u64 = 400;

/// One node joining a bootstrapped 256-node ring through a fixed
/// contact: the route to its successor, the handoff, the neighbour
/// links and the node-table insert. Only the join is timed; the node
/// then leaves, so every join finds 256 nodes in a table that has
/// already grown once. `work` counts joins, and `allocations` is their
/// total.
fn chord_join(args: &Args) -> Measurement {
    let mut rng = substream(args.seed ^ 0x65, 0, domains::PLACEMENT);
    let mut net = Network::bootstrap(NetConfig::default(), 256, &mut rng);
    let contact = net.node_ids()[0];
    let mut ms = 0.0;
    let mut allocs = Some(0);
    for _ in 0..JOINS {
        let id = autobal_id::Id::random(&mut rng);
        let (join_ms, (a, joined)) = wall_ms(|| alloc_count(|| net.join(id, contact)));
        joined.expect("join into a stable ring");
        ms += join_ms;
        allocs = allocs.zip(a).map(|(sum, a)| sum + a);
        net.leave(id).expect("the joined node leaves");
    }
    let per_s = JOINS as f64 / (ms / 1e3);
    outln!(
        "  chord_join: {:.2} us/join ({per_s:.0} joins/s) into 256 nodes",
        ms * 1e3 / JOINS as f64
    );
    Measurement {
        name: "chord_join".to_string(),
        group: None,
        workers: Some(256),
        substrate: "protocol",
        units: "joins",
        work: JOINS,
        wall_ms: ms,
        throughput: per_s,
        allocations: allocs,
        peak_vnodes: None,
        naive_wall_ms: None,
        speedup_vs_naive: None,
        sybils: None,
        churn: None,
    }
}

/// The full strategy loop on the event-time substrate: the same
/// workload shape as `chord_protocol`, but every load query,
/// invitation, and Sybil join rides the asynchronous wire under real
/// message latency, racing stabilization. `work` counts wire events
/// processed, so the gated figure is event-loop throughput, not ticks.
fn event_substrate(args: &Args) -> Measurement {
    let cfg = EventSimConfig {
        proto: ProtocolSimConfig {
            nodes: 96,
            tasks: 9_600,
            strategy: StrategyKind::SmartNeighbor,
            churn_rate: 0.01,
            ..ProtocolSimConfig::default()
        },
        ..EventSimConfig::default()
    };
    let seed = args.seed ^ 0x61;
    let (first_ms, _) = wall_ms(|| run_event_sim(&cfg, seed));
    let (second_ms, (allocs, run)) = wall_ms(|| alloc_count(|| run_event_sim(&cfg, seed)));
    let ms = first_ms.min(second_ms);
    outln!(
        "  event_substrate: {} events | {:.0} ms ({:.0} events/s)",
        run.wire_events,
        ms,
        run.wire_events as f64 / (ms / 1e3)
    );
    Measurement {
        name: "event_substrate".to_string(),
        group: None,
        workers: None,
        substrate: "event",
        units: "events",
        work: run.wire_events,
        wall_ms: ms,
        throughput: run.wire_events as f64 / (ms / 1e3),
        allocations: allocs,
        peak_vnodes: None,
        naive_wall_ms: None,
        speedup_vs_naive: None,
        sybils: None,
        churn: None,
    }
}

fn eventnet_once(seed: u64) -> u64 {
    let mut rng = substream(seed, 0, domains::PLACEMENT);
    let mut net = EventNet::bootstrap(EventConfig::default(), 256, &mut rng);
    let ids = net.node_ids();
    let mut events = 0u64;
    for i in 0..2_000u64 {
        let origin = ids[rng.gen_range(0..ids.len())];
        let key = autobal_id::Id::random(&mut rng);
        let _ = net.lookup(origin, key);
        if i % 8 == 7 {
            events += net.run_until(net.now() + 40);
        }
    }
    events += net.run_until(net.now() + LOOKUP_TIMEOUT);
    events
}

fn eventnet(args: &Args) -> Measurement {
    let seed = args.seed ^ 0x60;
    let (first_ms, _) = wall_ms(|| eventnet_once(seed));
    let (second_ms, (allocs, events)) = wall_ms(|| alloc_count(|| eventnet_once(seed)));
    let ms = first_ms.min(second_ms);
    outln!(
        "  eventnet: {} events | {:.0} ms ({:.0} events/s)",
        events,
        ms,
        events as f64 / (ms / 1e3)
    );
    Measurement {
        name: "eventnet".to_string(),
        group: None,
        workers: None,
        substrate: "eventnet",
        units: "events",
        work: events,
        wall_ms: ms,
        throughput: events as f64 / (ms / 1e3),
        allocations: allocs,
        peak_vnodes: None,
        naive_wall_ms: None,
        speedup_vs_naive: None,
        sybils: None,
        churn: None,
    }
}

/// The scaling grid: worker counts. Tasks are proportional (100 per
/// worker) so every cell drains the same per-worker workload; the
/// reduced grid is the CI smoke.
fn scaling_grid(full: bool) -> Vec<u64> {
    if full {
        vec![6_000, 50_000, 100_000, 500_000, 1_000_000]
    } else {
        vec![100_000]
    }
}

/// Tasks per worker in every scaling cell.
const SCALING_TASKS_PER_WORKER: u64 = 100;

/// Repetitions per scaling cell (best-of). The cells are long enough
/// that two repetitions bound the noise the pinned scenarios need five
/// for.
const SCALING_REPS: usize = 2;

/// The `oracle_scaling` family: one cell per worker count, timing the
/// drain phase only. The workload (node ids + pre-sorted task keys) is
/// generated once per worker count and shared by every repetition, so
/// cell times measure the tick engine, not workload generation;
/// `Sim::with_placement` construction (ring build + task assignment)
/// also stays outside the clock.
fn oracle_scaling(args: &Args) -> Vec<Measurement> {
    let mut out = Vec::new();
    for workers in scaling_grid(args.full) {
        let tasks = workers * SCALING_TASKS_PER_WORKER;
        let seed = args.seed ^ 0x5CA1;
        // One workload per worker count. Keys are pre-sorted once:
        // `assign_tasks` sorts its input, and a sorted master vector
        // makes that re-sort a cheap linear pass in every repetition.
        let mut placement = substream(seed, 0, domains::PLACEMENT);
        // Distinct (`Sim::with_placement` refuses duplicates), sorted.
        let mut node_ids = autobal_id::Id::distinct_random(workers as usize, &mut placement);
        node_ids.sort_unstable();
        let mut task_keys: Vec<autobal_id::Id> = (0..tasks)
            .map(|_| autobal_id::Id::random(&mut placement))
            .collect();
        task_keys.sort_unstable();

        let cfg = SimConfig {
            nodes: workers as usize,
            tasks,
            strategy: StrategyKind::None,
            churn_rate: 0.0,
            ..SimConfig::default()
        };
        let mut best_ms = f64::INFINITY;
        let mut allocs = None;
        let mut ticks = 0u64;
        let mut peak = 0u64;
        for _ in 0..SCALING_REPS {
            let sim = Sim::with_placement(cfg.clone(), seed, node_ids.clone(), task_keys.clone());
            let (ms, (a, run)) = wall_ms(|| alloc_count(|| sim.run()));
            assert!(run.completed, "scaling cell did not drain");
            best_ms = best_ms.min(ms);
            allocs = a;
            ticks = run.ticks;
            peak = run.peak_vnodes as u64;
        }
        let throughput = tasks as f64 / (best_ms / 1e3);
        outln!("  scaling n={workers}: {ticks} ticks | {best_ms:.0} ms | {throughput:.0} tasks/s");
        out.push(Measurement {
            name: format!("scaling_n{}k_s1", workers / 1_000),
            substrate: "oracle-ring",
            group: Some("oracle_scaling"),
            workers: Some(workers),
            units: "tasks",
            work: tasks,
            wall_ms: best_ms,
            throughput,
            allocations: allocs,
            peak_vnodes: Some(peak),
            naive_wall_ms: None,
            speedup_vs_naive: None,
            sybils: None,
            churn: None,
        });
    }
    out
}

/// What comparing a run against a baseline found.
#[derive(Debug, Default)]
struct BaselineReport {
    /// Scenario name, baseline throughput and current throughput of
    /// every >2x fall.
    regressions: Vec<(String, f64, f64)>,
    /// Baseline scenarios this run did not produce.
    missing: Vec<String>,
}

/// Compares this run against a committed `BENCH_10.json`, printing one
/// line per scenario either side has.
fn compare_baseline(baseline_raw: &str, current: &[Measurement]) -> Result<BaselineReport, String> {
    let doc: serde_json::Value =
        serde_json::from_str(baseline_raw).map_err(|e| format!("baseline parse error: {e:?}"))?;
    let scenarios = doc
        .get("scenarios")
        .and_then(|s| s.as_array())
        .ok_or("baseline has no `scenarios` array")?;
    let mut report = BaselineReport::default();
    for m in current {
        let Some(base) = scenarios
            .iter()
            .find(|s| s.get("name").and_then(|n| n.as_str()) == Some(m.name.as_str()))
        else {
            outln!(
                "  baseline: no scenario `{}` (new scenario, skipping)",
                m.name
            );
            continue;
        };
        let Some(base_tp) = base.get("throughput").and_then(|t| t.as_f64()) else {
            return Err(format!("baseline scenario `{}` has no throughput", m.name));
        };
        let verdict = if m.throughput < base_tp / 2.0 {
            report
                .regressions
                .push((m.name.to_string(), base_tp, m.throughput));
            "REGRESSION (>2x)"
        } else {
            "ok"
        };
        outln!(
            "  baseline: {:<18} {:>12.0} -> {:>12.0} {}/s  {}",
            m.name,
            base_tp,
            m.throughput,
            m.units,
            verdict
        );
    }
    for name in scenarios.iter().filter_map(|s| s.get("name")?.as_str()) {
        if !current.iter().any(|m| m.name == name) {
            outln!("  baseline: scenario `{name}` not produced by this run");
            report.missing.push(name.to_string());
        }
    }
    Ok(report)
}

pub fn perf(args: &Args) {
    outln!("perf: pinned benchmark scenarios (BENCH_10.json)");
    let mut measurements = vec![oracle_ring_large(args)];
    measurements.extend(oracle_sybil_rows(args));
    measurements.push(oracle_churn(args));
    measurements.extend([
        chord_protocol(args),
        chord_maintenance(args),
        chord_maintenance_churn(args),
    ]);
    measurements.extend(chord_lookup(args));
    measurements.extend([chord_join(args), event_substrate(args), eventnet(args)]);
    measurements.extend(oracle_scaling(args));

    let host = HostStamp::current();
    let body: Vec<String> = measurements.iter().map(|m| m.to_json(&host)).collect();
    let json = format!(
        "{{\n  \"schema\": \"autobal-perf-v1\",\n  \"seed\": {},\n  \"scenarios\": [\n{}\n  ]\n}}\n",
        args.seed,
        body.join(",\n")
    );
    write_out(&args.out, "BENCH_10.json", &json);

    if let Some(path) = &args.baseline {
        let raw = fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("read baseline {}: {e}", path.display()));
        match compare_baseline(&raw, &measurements) {
            Ok(report) if report.regressions.is_empty() => {
                outln!("  baseline: no >2x regressions");
            }
            Ok(report) => {
                for (name, base, cur) in &report.regressions {
                    errln!("perf regression: {name} fell from {base:.0}/s to {cur:.0}/s (>2x)");
                }
                std::process::exit(1);
            }
            Err(e) => {
                errln!("perf baseline error: {e}");
                std::process::exit(1);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(name: &'static str, throughput: f64) -> Measurement {
        Measurement {
            name: name.to_string(),
            substrate: "oracle-ring",
            group: None,
            workers: None,
            units: "ticks",
            work: 100,
            wall_ms: 10.0,
            throughput,
            allocations: None,
            peak_vnodes: None,
            naive_wall_ms: None,
            speedup_vs_naive: None,
            sybils: None,
            churn: None,
        }
    }

    fn doc(oracle_tp: f64) -> String {
        format!(
            "{{\n  \"schema\": \"autobal-perf-v1\",\n  \"seed\": 1,\n  \"scenarios\": [\n{}\n  ]\n}}\n",
            m("oracle_ring_large", oracle_tp).to_json(&HostStamp {
                nproc: 2,
                threads: 2
            })
        )
    }

    #[test]
    fn measurement_json_is_valid_and_stable() {
        let rendered = doc(1234.5);
        let v: serde_json::Value = serde_json::from_str(&rendered).unwrap();
        assert_eq!(v.get("schema").unwrap().as_str(), Some("autobal-perf-v1"));
        let s = &v.get("scenarios").unwrap().as_array().unwrap()[0];
        assert_eq!(s.get("name").unwrap().as_str(), Some("oracle_ring_large"));
        assert_eq!(s.get("throughput").unwrap().as_f64(), Some(1234.5));
        assert!(s.get("allocations").unwrap().is_null());
        assert_eq!(s.get("nproc").unwrap().as_u64(), Some(2));
        assert_eq!(s.get("threads").unwrap().as_u64(), Some(2));
    }

    #[test]
    fn baseline_flags_only_2x_regressions() {
        // Current at 40% of baseline: within the 2x gate.
        let r = compare_baseline(&doc(1000.0), &[m("oracle_ring_large", 501.0)]).unwrap();
        assert!(r.regressions.is_empty());
        // Below half: regression.
        let r = compare_baseline(&doc(1000.0), &[m("oracle_ring_large", 499.0)]).unwrap();
        assert_eq!(r.regressions.len(), 1);
        // Unknown scenario: skipped, not an error.
        let r = compare_baseline(&doc(1000.0), &[m("brand_new", 1.0)]).unwrap();
        assert!(r.regressions.is_empty());
    }

    #[test]
    fn baseline_scenarios_this_run_lacks_are_listed() {
        let r = compare_baseline(&doc(1000.0), &[m("oracle_ring_large", 900.0)]).unwrap();
        assert!(r.missing.is_empty());
        let r = compare_baseline(&doc(1000.0), &[m("brand_new", 1.0)]).unwrap();
        assert_eq!(r.missing, vec!["oracle_ring_large".to_string()]);
        let r = compare_baseline(&doc(1000.0), &[]).unwrap();
        assert_eq!(r.missing, vec!["oracle_ring_large".to_string()]);
    }

    #[test]
    fn baseline_errors_are_reported() {
        assert!(compare_baseline("not json", &[]).is_err());
        assert!(compare_baseline("{\"schema\": \"x\"}", &[]).is_err());
    }
}
