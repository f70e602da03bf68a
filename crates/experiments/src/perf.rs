//! `repro perf` — the benchmark/regression plane.
//!
//! Runs pinned end-to-end scenarios on every substrate — the oracle
//! ring, the synchronous protocol loop, the event-time strategy loop,
//! and the raw eventnet lookup plane — and emits `BENCH_10.json`
//! (schema `autobal-perf-v1`) with wall time and throughput per
//! scenario. The oracle-ring scenario additionally runs
//! the naive pre-optimization reference engine
//! ([`autobal::reference::NaiveSim`]) **in the same process and on the
//! same inputs**, asserts the two engines produce identical results,
//! and reports the measured speedup — so the headline number is never a
//! comparison across machines or commits.
//!
//! The `oracle_scaling` family sweeps worker count × shard count on the
//! one ring engine (tasks proportional at 100 per worker, drain-phase
//! timing over a shared pre-generated workload): the shard count only
//! sets how many arc ranges the ring is partitioned into, so the cells
//! compare partitionings (and the thread parallelism they allow), not
//! engines. The reduced CI grid is 100k workers at shards {1, 4};
//! `--full` runs n ∈ {6k, 50k, 100k, 500k, 1M} at shards {1, 2, 4, 8}.
//! Every cell asserts tick-exact equality against its 1-shard sibling
//! before any number is reported.
//!
//! Every row carries the host's `nproc` and the rayon thread count the
//! run used, so a scaling row is never read without its core count.
//!
//! `--baseline PATH` compares this run's throughput against a committed
//! `BENCH_10.json` and fails (exit 1) only on a >2x regression; smaller
//! wobble is expected CI noise. Scenarios absent from the baseline are
//! skipped, so reduced-grid runs can be gated on full-grid baselines.
//!
//! With the `count-allocs` feature the binary's global allocator counts
//! allocation events and each scenario reports its count; without it
//! the field is `null` and the schema is unchanged.

use crate::common::{write_out, Args};
use autobal::event_sim::{run_event_sim, EventSimConfig};
use autobal::protocol_sim::{run_protocol_sim, ProtocolSimConfig};
use autobal::reference::NaiveSim;
use autobal_chord::{EventConfig, EventNet};
use autobal_core::{RunResult, Sim, SimConfig, StrategyKind};
use autobal_stats::rng::{domains, substream};
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
    /// Scenario family for grouped rows (`"oracle_scaling"`), `null`
    /// for the standalone pinned scenarios.
    group: Option<&'static str>,
    /// Scaling rows: the worker count of the cell.
    workers: Option<u64>,
    /// Scaling rows: the configured shard count of the cell.
    shards: Option<u32>,
    /// What `work` counts: `"ticks"`, `"tasks"`, or `"events"`.
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

fn opt_u32(v: Option<u32>) -> String {
    v.map_or("null".to_string(), |n| n.to_string())
}

impl Measurement {
    fn to_json(&self, host: &HostStamp) -> String {
        format!(
            "    {{\n      \"name\": \"{}\",\n      \"substrate\": \"{}\",\n      \"group\": {},\n      \"workers\": {},\n      \"shards\": {},\n      \"nproc\": {},\n      \"threads\": {},\n      \"units\": \"{}\",\n      \"work\": {},\n      \"wall_ms\": {:.2},\n      \"throughput\": {:.2},\n      \"allocations\": {},\n      \"peak_vnodes\": {},\n      \"naive_wall_ms\": {},\n      \"speedup_vs_naive\": {}\n    }}",
            self.name,
            self.substrate,
            opt_str(self.group),
            opt_u64(self.workers),
            opt_u32(self.shards),
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
        )
    }
}

/// The pinned large-scale oracle-ring scenario: 6 000 workers grinding
/// through 1.2 million tasks in steady state. This keeps the clock on
/// the paths the overhaul rewrote — the per-tick work loop and the pop
/// stream — rather than on churn bookkeeping both engines share. The
/// churn and series paths are pinned bit-for-bit by the differential
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
    assert_eq!(opt.series.gini, naive.series_gini, "gini series diverged");
    assert_eq!(opt.series.idle, naive.series_idle, "idle series diverged");
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
    println!(
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
        shards: None,
        substrate: "oracle-ring",
        units: "ticks",
        work: opt.ticks,
        wall_ms: opt_ms,
        throughput: opt.ticks as f64 / (opt_ms / 1e3),
        allocations: allocs,
        peak_vnodes: Some(opt.peak_vnodes as u64),
        naive_wall_ms: Some(naive_ms),
        speedup_vs_naive: Some(speedup),
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
    println!(
        "  chord_protocol: {} ticks | {:.0} ms ({:.0} ticks/s)",
        run.ticks,
        ms,
        run.ticks as f64 / (ms / 1e3)
    );
    Measurement {
        name: "chord_protocol".to_string(),
        group: None,
        workers: None,
        shards: None,
        substrate: "protocol",
        units: "ticks",
        work: run.ticks,
        wall_ms: ms,
        throughput: run.ticks as f64 / (ms / 1e3),
        allocations: allocs,
        peak_vnodes: None,
        naive_wall_ms: None,
        speedup_vs_naive: None,
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
    println!(
        "  event_substrate: {} events | {:.0} ms ({:.0} events/s)",
        run.wire_events,
        ms,
        run.wire_events as f64 / (ms / 1e3)
    );
    Measurement {
        name: "event_substrate".to_string(),
        group: None,
        workers: None,
        shards: None,
        substrate: "event",
        units: "events",
        work: run.wire_events,
        wall_ms: ms,
        throughput: run.wire_events as f64 / (ms / 1e3),
        allocations: allocs,
        peak_vnodes: None,
        naive_wall_ms: None,
        speedup_vs_naive: None,
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
    events += net.run_until(net.now() + EventConfig::default().lookup_timeout);
    events
}

fn eventnet(args: &Args) -> Measurement {
    let seed = args.seed ^ 0x60;
    let (first_ms, _) = wall_ms(|| eventnet_once(seed));
    let (second_ms, (allocs, events)) = wall_ms(|| alloc_count(|| eventnet_once(seed)));
    let ms = first_ms.min(second_ms);
    println!(
        "  eventnet: {} events | {:.0} ms ({:.0} events/s)",
        events,
        ms,
        events as f64 / (ms / 1e3)
    );
    Measurement {
        name: "eventnet".to_string(),
        group: None,
        workers: None,
        shards: None,
        substrate: "eventnet",
        units: "events",
        work: events,
        wall_ms: ms,
        throughput: events as f64 / (ms / 1e3),
        allocations: allocs,
        peak_vnodes: None,
        naive_wall_ms: None,
        speedup_vs_naive: None,
    }
}

/// Workers and churn deltas of the stats-cost scenario — the same
/// 6 000-worker scale as `oracle_ring_large`, isolated to the fairness
/// sweep the metrics plane replaced.
const STATS_WORKERS: usize = 6_000;
const STATS_TICKS: u64 = 400;
/// Load deltas applied between consecutive sample points.
const STATS_DELTAS_PER_TICK: usize = 64;

/// Per-tick fairness statistics, incremental vs batch: replay one
/// deterministic load-churn script twice — once updating a
/// [`autobal_metrics::LoadDist`] per delta and reading its aggregates
/// (`O(log L)` per delta), once re-sorting the full load vector and
/// recomputing from scratch at every tick (`O(n log n)`) — and assert
/// (untimed) that the two per-tick `gini_ppm`/percentile sequences are
/// identical before reporting the measured speedup in the
/// `naive_wall_ms`/`speedup_vs_naive` columns.
fn stats_incremental(args: &Args) -> Measurement {
    let seed = args.seed ^ 0x62;
    let mut rng = substream(seed, 0, domains::PLACEMENT);
    let loads: Vec<u64> = (0..STATS_WORKERS)
        .map(|_| rng.gen_range(0..400u64))
        .collect();
    // The churn script: (worker, new load) per delta, fixed up front so
    // both engines replay identical inputs.
    let mut script: Vec<(usize, u64)> = Vec::new();
    for _ in 0..STATS_TICKS {
        for _ in 0..STATS_DELTAS_PER_TICK {
            script.push((rng.gen_range(0..STATS_WORKERS), rng.gen_range(0..400u64)));
        }
    }

    let incremental = |loads: &[u64]| -> Vec<(u64, u64)> {
        let mut dist = autobal_metrics::LoadDist::new();
        for &v in loads {
            dist.insert(v);
        }
        let mut cur = loads.to_vec();
        let mut out = Vec::with_capacity(STATS_TICKS as usize);
        for tick in script.chunks(STATS_DELTAS_PER_TICK) {
            for &(w, new) in tick {
                dist.update(cur[w], new);
                cur[w] = new;
            }
            out.push((dist.gini_ppm(), dist.percentile(99)));
        }
        out
    };
    let batch = |loads: &[u64]| -> Vec<(u64, u64)> {
        let mut cur = loads.to_vec();
        let mut out = Vec::with_capacity(STATS_TICKS as usize);
        let mut scratch = Vec::with_capacity(cur.len());
        for tick in script.chunks(STATS_DELTAS_PER_TICK) {
            for &(w, new) in tick {
                cur[w] = new;
            }
            scratch.clear();
            scratch.extend_from_slice(&cur);
            scratch.sort_unstable();
            let n = scratch.len() as u64;
            let total: u128 = scratch.iter().map(|&v| v as u128).sum();
            let weighted: u128 = scratch
                .iter()
                .enumerate()
                .map(|(i, &v)| (i as u128 + 1) * v as u128)
                .sum();
            out.push((
                autobal_metrics::dist::gini_ppm_from_sums(n, total, weighted),
                autobal_stats::fairness::percentile_sorted(&scratch, 99),
            ));
        }
        out
    };

    // Warm, then best-of-N both ways; equality is asserted untimed.
    assert_eq!(
        incremental(&loads),
        batch(&loads),
        "incremental stats diverged from the batch recompute"
    );
    let mut inc_ms = f64::INFINITY;
    let mut batch_ms = f64::INFINITY;
    let mut allocs = None;
    for _ in 0..ORACLE_REPS {
        let (ms, _) = wall_ms(|| batch(&loads));
        batch_ms = batch_ms.min(ms);
        let (ms, (a, _)) = wall_ms(|| alloc_count(|| incremental(&loads)));
        inc_ms = inc_ms.min(ms);
        allocs = a;
    }

    let speedup = batch_ms / inc_ms;
    println!(
        "  stats_incremental: {} ticks x {} workers | incremental {:.1} ms | batch {:.1} ms | speedup {:.2}x",
        STATS_TICKS, STATS_WORKERS, inc_ms, batch_ms, speedup
    );
    Measurement {
        name: "stats_incremental".to_string(),
        group: None,
        workers: None,
        shards: None,
        substrate: "metrics",
        units: "ticks",
        work: STATS_TICKS,
        wall_ms: inc_ms,
        throughput: STATS_TICKS as f64 / (inc_ms / 1e3),
        allocations: allocs,
        peak_vnodes: None,
        naive_wall_ms: Some(batch_ms),
        speedup_vs_naive: Some(speedup),
    }
}

/// The scaling grid: `(workers, shard counts)` cells. Tasks are
/// proportional (100 per worker) so every cell drains the same
/// per-worker workload; the reduced grid is the CI smoke.
fn scaling_grid(full: bool) -> Vec<(u64, Vec<u32>)> {
    if full {
        [6_000u64, 50_000, 100_000, 500_000, 1_000_000]
            .into_iter()
            .map(|n| (n, vec![1u32, 2, 4, 8]))
            .collect()
    } else {
        vec![(100_000, vec![1, 4])]
    }
}

/// Tasks per worker in every scaling cell.
const SCALING_TASKS_PER_WORKER: u64 = 100;

/// Repetitions per scaling cell (best-of). The cells are long enough
/// that two repetitions bound the noise the pinned scenarios need five
/// for.
const SCALING_REPS: usize = 2;

/// The `oracle_scaling` family: worker count × shard count, timing the
/// drain phase only. The workload (node ids + pre-sorted task keys) is
/// generated once per worker count and shared by every shard count and
/// repetition, so cell times compare tick engines, not workload
/// generation; `Sim::with_placement` construction (ring build + task
/// assignment) also stays outside the clock. Before any cell is
/// reported, its run is asserted tick-exact against the 1-shard cell
/// of the same worker count — the cross-engine equality gate.
fn oracle_scaling(args: &Args) -> Vec<Measurement> {
    // Distinct node ids (160-bit collisions are astronomically rare,
    // but `Sim::with_placement` refuses duplicates, so dedup anyway).
    fn unique_ids(n: usize, rng: &mut impl Rng) -> Vec<autobal_id::Id> {
        let mut ids: Vec<autobal_id::Id> = (0..n).map(|_| autobal_id::Id::random(rng)).collect();
        ids.sort_unstable();
        ids.dedup();
        while ids.len() < n {
            ids.push(autobal_id::Id::random(rng));
            ids.sort_unstable();
            ids.dedup();
        }
        ids
    }

    let mut out = Vec::new();
    for (workers, shard_counts) in scaling_grid(args.full) {
        let tasks = workers * SCALING_TASKS_PER_WORKER;
        let seed = args.seed ^ 0x5CA1;
        // One workload per worker count. Keys are pre-sorted once:
        // `assign_tasks` sorts its input, and a sorted master vector
        // makes that re-sort a cheap linear pass in every repetition.
        let mut placement = substream(seed, 0, domains::PLACEMENT);
        let node_ids = unique_ids(workers as usize, &mut placement);
        let mut task_keys: Vec<autobal_id::Id> = (0..tasks)
            .map(|_| autobal_id::Id::random(&mut placement))
            .collect();
        task_keys.sort_unstable();

        let mut reference: Option<(u64, f64)> = None;
        for &shards in &shard_counts {
            let cfg = SimConfig {
                nodes: workers as usize,
                tasks,
                strategy: StrategyKind::None,
                churn_rate: 0.0,
                shards,
                ..SimConfig::default()
            };
            let mut best_ms = f64::INFINITY;
            let mut allocs = None;
            let mut ticks = 0u64;
            let mut peak = 0u64;
            for _ in 0..SCALING_REPS {
                let sim =
                    Sim::with_placement(cfg.clone(), seed, node_ids.clone(), task_keys.clone());
                let (ms, (a, run)) = wall_ms(|| alloc_count(|| sim.run()));
                assert!(run.completed, "scaling cell did not drain");
                best_ms = best_ms.min(ms);
                allocs = a;
                ticks = run.ticks;
                peak = run.peak_vnodes as u64;
                // Tick-exact equality across shard counts: every cell
                // must replay the 1-shard run's schedule.
                if let Some((ref_ticks, ref_factor)) = reference {
                    assert_eq!(
                        (run.ticks, run.runtime_factor),
                        (ref_ticks, ref_factor),
                        "scaling n={workers} s={shards} diverged from 1-shard run"
                    );
                } else {
                    reference = Some((run.ticks, run.runtime_factor));
                }
            }
            let throughput = tasks as f64 / (best_ms / 1e3);
            println!(
                "  scaling n={workers} shards={shards}: {ticks} ticks | {best_ms:.0} ms | {throughput:.0} tasks/s"
            );
            out.push(Measurement {
                name: format!("scaling_n{}k_s{}", workers / 1_000, shards),
                substrate: "oracle-ring",
                group: Some("oracle_scaling"),
                workers: Some(workers),
                shards: Some(shards),
                units: "tasks",
                work: tasks,
                wall_ms: best_ms,
                throughput,
                allocations: allocs,
                peak_vnodes: Some(peak),
                naive_wall_ms: None,
                speedup_vs_naive: None,
            });
        }
        // Compare partition counts on the one engine: the best
        // multi-shard cell against the 1-shard cell of this worker
        // count. Any gain is parallel replay across shards, so it is
        // bounded by the rayon thread count.
        if let (Some(base), Some(best)) = (
            out.iter()
                .find(|m| m.workers == Some(workers) && m.shards == Some(1)),
            out.iter()
                .filter(|m| m.workers == Some(workers) && m.shards > Some(1))
                .max_by(|a, b| a.throughput.total_cmp(&b.throughput)),
        ) {
            println!(
                "  scaling n={workers}: best partition ({} shards) {:.2}x over 1 shard on {} rayon threads",
                best.shards.unwrap_or(1),
                best.throughput / base.throughput,
                rayon::current_num_threads()
            );
        }
    }
    out
}

/// Compares this run against a committed `BENCH_10.json`. Returns the
/// regressions found (scenario name, baseline throughput, current).
fn compare_baseline(
    baseline_raw: &str,
    current: &[Measurement],
) -> Result<Vec<(String, f64, f64)>, String> {
    let doc: serde_json::Value =
        serde_json::from_str(baseline_raw).map_err(|e| format!("baseline parse error: {e:?}"))?;
    let scenarios = doc
        .get("scenarios")
        .and_then(|s| s.as_array())
        .ok_or("baseline has no `scenarios` array")?;
    let mut regressions = Vec::new();
    for m in current {
        let Some(base) = scenarios
            .iter()
            .find(|s| s.get("name").and_then(|n| n.as_str()) == Some(m.name.as_str()))
        else {
            println!(
                "  baseline: no scenario `{}` (new scenario, skipping)",
                m.name
            );
            continue;
        };
        let Some(base_tp) = base.get("throughput").and_then(|t| t.as_f64()) else {
            return Err(format!("baseline scenario `{}` has no throughput", m.name));
        };
        let verdict = if m.throughput < base_tp / 2.0 {
            regressions.push((m.name.to_string(), base_tp, m.throughput));
            "REGRESSION (>2x)"
        } else {
            "ok"
        };
        println!(
            "  baseline: {:<18} {:>12.0} -> {:>12.0} {}/s  {}",
            m.name, base_tp, m.throughput, m.units, verdict
        );
    }
    Ok(regressions)
}

pub fn perf(args: &Args) {
    println!("perf: pinned benchmark scenarios (BENCH_10.json)");
    let mut measurements = vec![
        oracle_ring_large(args),
        chord_protocol(args),
        event_substrate(args),
        eventnet(args),
        stats_incremental(args),
    ];
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
            Ok(regressions) if regressions.is_empty() => {
                println!("  baseline: no >2x regressions");
            }
            Ok(regressions) => {
                for (name, base, cur) in &regressions {
                    eprintln!("perf regression: {name} fell from {base:.0}/s to {cur:.0}/s (>2x)");
                }
                std::process::exit(1);
            }
            Err(e) => {
                eprintln!("perf baseline error: {e}");
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
            shards: None,
            units: "ticks",
            work: 100,
            wall_ms: 10.0,
            throughput,
            allocations: None,
            peak_vnodes: None,
            naive_wall_ms: None,
            speedup_vs_naive: None,
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
        assert!(r.is_empty());
        // Below half: regression.
        let r = compare_baseline(&doc(1000.0), &[m("oracle_ring_large", 499.0)]).unwrap();
        assert_eq!(r.len(), 1);
        // Unknown scenario: skipped, not an error.
        let r = compare_baseline(&doc(1000.0), &[m("brand_new", 1.0)]).unwrap();
        assert!(r.is_empty());
    }

    #[test]
    fn baseline_errors_are_reported() {
        assert!(compare_baseline("not json", &[]).is_err());
        assert!(compare_baseline("{\"schema\": \"x\"}", &[]).is_err());
    }
}
