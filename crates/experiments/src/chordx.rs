//! Chord substrate experiments: routing scalability and churn
//! resilience — the protocol-level properties the paper assumes
//! ("Chord (and all DHTs) have the qualities we desire … scalability,
//! fault tolerance, and load-balancing").

use crate::common::{write_out, Args};
use autobal_chord::{routing, NetConfig, Network};
use autobal_id::{sha1::sha1_id_of_u64, Id};
use autobal_stats::rng::{domains, substream};
use autobal_workload::tables::{f3, Table};
use rand::Rng;

/// Routing scalability: measured mean lookup hops versus the ½·log₂ n
/// theory across network sizes.
pub fn chord_hops(args: &Args) {
    println!("chord_hops: lookup hop scaling");
    let mut table = Table::new(vec!["nodes", "mean hops", "max hops", "theory ½·log2 n"]);
    for n in [32usize, 128, 512, 2048] {
        let mut rng = substream(args.seed, 0, domains::PLACEMENT);
        let mut net = Network::bootstrap(NetConfig::default(), n, &mut rng);
        let stats = routing::measure_hops(&mut net, 500, &mut rng);
        assert_eq!(stats.failed, 0, "lookups on a stable ring never fail");
        println!(
            "  n={n:<5} mean {:.2} max {} (theory {:.2})",
            stats.mean(),
            stats.max_hops,
            routing::expected_hops(n)
        );
        table.push_row(vec![
            n.to_string(),
            f3(stats.mean()),
            stats.max_hops.to_string(),
            f3(routing::expected_hops(n)),
        ]);
    }
    write_out(&args.out, "chord_hops.md", &table.to_markdown());
    write_out(&args.out, "chord_hops.csv", &table.to_csv());
}

/// Footnote 2 of the paper: "rising maintenance costs after
/// [churn 0.01] make any amount of churn after a certain point
/// prohibitively expensive. Determination of this point requires
/// implementation on a real network." Our protocol substrate *is* that
/// implementation: we run the Chord overlay under each churn rate and
/// measure protocol messages per node per cycle, then combine with the
/// tick simulator's speedup to show the cost/benefit crossover.
pub fn maintenance_cost(args: &Args) {
    println!("maintenance_cost: protocol cost vs churn benefit (footnote 2)");
    let n = 128usize;
    let cycles = 60u32;
    let mut table = Table::new(vec![
        "churn rate",
        "msgs/node/cycle",
        "pings/node/cycle",
        "key transfers/node/cycle",
        "runtime factor (tick sim)",
        "speedup vs no churn",
    ]);
    // Tick-simulator benefit at each rate (100n/1e4t, quick trials).
    let base_cfg = autobal_core::SimConfig {
        nodes: 100,
        tasks: 10_000,
        strategy: autobal_core::StrategyKind::Churn,
        ..autobal_core::SimConfig::default()
    };
    let base_factor = args
        .run_cell(&base_cfg, args.seed ^ 0xC0)
        .mean_runtime_factor;

    for rate in [0.0, 0.001, 0.01, 0.05, 0.1] {
        // Protocol cost: run the substrate with matching churn.
        let mut rng = substream(args.seed, 2, domains::CHURN);
        let mut net = Network::bootstrap(NetConfig::default(), n, &mut rng);
        for k in 0..1000u64 {
            net.insert_key(sha1_id_of_u64(k));
        }
        net.maintenance_cycle();
        let before_total = net.stats.total();
        let before_pings = net.stats.ping;
        let before_transfers = net.stats.key_transfer;
        // A waiting pool the size of the network, exactly like §IV-A.
        let mut waiting = n;
        for _ in 0..cycles {
            // Bernoulli churn at the paper's per-tick rate.
            let ids = net.node_ids();
            for id in ids {
                if net.len() > 8 && rng.gen::<f64>() <= rate {
                    net.fail(id).unwrap();
                    waiting += 1;
                }
            }
            // Snapshot the pool size: joins this cycle shrink `waiting`
            // without changing how many candidates get a coin flip.
            let pool = waiting;
            for _ in 0..pool {
                if rng.gen::<f64>() <= rate {
                    let contact = net.node_ids()[0];
                    if net.join(Id::random(&mut rng), contact).is_ok() {
                        waiting -= 1;
                    }
                }
            }
            net.maintenance_cycle();
        }
        let msgs = (net.stats.total() - before_total) as f64 / (n as f64 * cycles as f64);
        let pings = (net.stats.ping - before_pings) as f64 / (n as f64 * cycles as f64);
        let transfers =
            (net.stats.key_transfer - before_transfers) as f64 / (n as f64 * cycles as f64);

        let factor = if rate == 0.0 {
            base_factor
        } else {
            let cfg = autobal_core::SimConfig {
                churn_rate: rate,
                ..base_cfg.clone()
            };
            args.run_cell(&cfg, args.seed ^ 0xC1).mean_runtime_factor
        };
        println!(
            "  rate {rate:<6}: {msgs:.1} msgs/node/cycle ({pings:.2} pings, {transfers:.2} transfers), factor {factor:.3}, speedup {:.2}x",
            base_factor / factor
        );
        table.push_row(vec![
            format!("{rate}"),
            f3(msgs),
            f3(pings),
            f3(transfers),
            f3(factor),
            f3(base_factor / factor),
        ]);
    }
    write_out(&args.out, "maintenance_cost.md", &table.to_markdown());
    write_out(&args.out, "maintenance_cost.csv", &table.to_csv());
}

/// Asynchronous message-level measurements: lookup latency distribution
/// and post-failure ring convergence time, on the event-driven overlay.
pub fn async_latency(args: &Args) {
    use autobal_chord::{EventConfig, EventNet};
    println!("async_latency: event-driven overlay measurements");
    let cfg = EventConfig::default();
    let mut table = Table::new(vec![
        "nodes",
        "lookups",
        "mean latency (time units)",
        "p95 latency",
        "timeouts",
        "mean hops",
    ]);
    for n in [32usize, 128, 512] {
        let mut rng = substream(args.seed, 3, domains::PLACEMENT);
        let mut net = EventNet::bootstrap(cfg, n, &mut rng);
        let ids = net.node_ids();
        let mut reqs = Vec::new();
        for i in 0..200u64 {
            let origin = ids[(i as usize * 17) % ids.len()];
            if let Some(r) = net.lookup(origin, sha1_id_of_u64(i)) {
                reqs.push(r);
            }
        }
        net.run_until(20_000);
        let done: Vec<_> = net
            .drain_completed()
            .filter(|l| reqs.contains(&l.req))
            .collect();
        let ok: Vec<_> = done.iter().filter(|l| l.owner.is_some()).collect();
        let timeouts = done.len() - ok.len();
        let mut lats: Vec<u64> = ok.iter().map(|l| l.latency).collect();
        lats.sort_unstable();
        let mean = lats.iter().sum::<u64>() as f64 / lats.len().max(1) as f64;
        let p95 = lats
            .get((lats.len() * 95 / 100).min(lats.len().saturating_sub(1)))
            .copied()
            .unwrap_or(0);
        let hops = ok.iter().map(|l| l.hops as f64).sum::<f64>() / ok.len().max(1) as f64;
        println!(
            "  n={n:<4} {} lookups: mean {mean:.0}, p95 {p95}, timeouts {timeouts}, hops {hops:.2}",
            done.len()
        );
        table.push_row(vec![
            n.to_string(),
            done.len().to_string(),
            f3(mean),
            p95.to_string(),
            timeouts.to_string(),
            f3(hops),
        ]);
    }

    // Convergence after a 12.5% simultaneous failure.
    let mut rng = substream(args.seed, 4, domains::CHURN);
    let mut net = EventNet::bootstrap(cfg, 128, &mut rng);
    let ids = net.node_ids();
    for id in ids.iter().step_by(8) {
        net.fail(*id);
    }
    let t0 = net.now();
    let mut converged_at = None;
    for round in 1..=60u64 {
        net.run_until(t0 + round * cfg.stabilize_every);
        if net.is_ring_consistent() {
            converged_at = Some(round);
            break;
        }
    }
    match converged_at {
        Some(r) => {
            println!("  ring reconverged {r} stabilize intervals after killing 16/128 nodes")
        }
        None => println!("  WARNING: ring did not reconverge within 60 intervals"),
    }
    write_out(&args.out, "async_latency.md", &table.to_markdown());
    write_out(&args.out, "async_latency.csv", &table.to_csv());
}

/// Churn resilience: a 64-node network storing 500 values endures
/// rounds of simultaneous failure+join; we track lookup success, data
/// completeness, and maintenance message cost per round.
pub fn chord_churn(args: &Args) {
    println!("chord_churn: protocol resilience under sustained churn");
    let mut rng = substream(args.seed, 1, domains::CHURN);
    let mut net = Network::bootstrap(NetConfig::default(), 64, &mut rng);
    let from0 = net.node_ids()[0];
    for i in 0..500u64 {
        net.put(
            from0,
            sha1_id_of_u64(i),
            bytes::Bytes::from(format!("v{i}")),
        )
        .unwrap();
    }
    net.maintenance_cycle();

    let mut table = Table::new(vec![
        "round",
        "peers",
        "values intact",
        "lookup success %",
        "mean hops",
        "msgs this round",
    ]);
    let rounds = 30;
    for round in 1..=rounds {
        let before = net.stats.total();
        // Two failures and two joins per round.
        for _ in 0..2 {
            let ids = net.node_ids();
            net.fail(ids[rng.gen_range(0..ids.len())]).unwrap();
        }
        for _ in 0..2 {
            let contact = net.node_ids()[0];
            net.join(Id::random(&mut rng), contact).unwrap();
        }
        net.maintenance_cycle();

        // Probe 100 random stored values mid-churn.
        let from = net.node_ids()[0];
        let mut ok = 0u32;
        let mut hops = 0u64;
        for probe in 0..100u64 {
            let key = sha1_id_of_u64(probe * 5 % 500);
            if let Ok(res) = net.lookup(from, key) {
                ok += 1;
                hops += res.hops as u64;
            }
        }
        let row = vec![
            round.to_string(),
            net.len().to_string(),
            net.total_values().to_string(),
            format!("{}", ok),
            f3(hops as f64 / ok.max(1) as f64),
            (net.stats.total() - before).to_string(),
        ];
        if round % 10 == 0 || round == 1 {
            println!(
                "  round {round:>2}: peers {}, values {}, lookups ok {ok}/100, msgs {}",
                net.len(),
                net.total_values(),
                net.stats.total() - before
            );
        }
        table.push_row(row);
    }
    // Values may transiently dip during a round but must fully recover.
    for _ in 0..3 {
        net.maintenance_cycle();
    }
    println!(
        "  final: {} values intact of 500 after {rounds} churn rounds",
        net.total_values()
    );
    write_out(&args.out, "chord_churn.md", &table.to_markdown());
    write_out(&args.out, "chord_churn.csv", &table.to_csv());
}
