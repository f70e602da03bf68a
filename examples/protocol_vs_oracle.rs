//! Cross-validation of the two simulation fidelities: the oracle-ring
//! tick simulator (what the paper used) versus the full Chord protocol
//! substrate (what a deployment would run) — same workload, same
//! trait-object strategies, side by side with the protocol's true
//! message bill and the strategy's own overhead share.
//!
//! ```text
//! cargo run --release --example protocol_vs_oracle
//! ```

use autobal::protocol_sim::{run_protocol_sim, ProtocolSimConfig};
use autobal::sim::{Sim, StrategyKind};

fn main() {
    let nodes = 48;
    let tasks = 4_800u64;
    println!(
        "{nodes} nodes, {tasks} tasks — ideal runtime {} ticks\n",
        tasks / nodes as u64
    );
    println!("| level | strategy | ticks | factor | protocol msgs | strategy msgs |");
    println!("|---|---|---|---|---|---|");

    for kind in [
        StrategyKind::None,
        StrategyKind::RandomInjection,
        StrategyKind::NeighborInjection,
        StrategyKind::SmartNeighbor,
        StrategyKind::Invitation,
    ] {
        let label = kind.label();

        // Protocol substrate: the same Strategy trait object running
        // against a live Chord network.
        let cfg = ProtocolSimConfig {
            nodes,
            tasks,
            strategy: kind,
            ..ProtocolSimConfig::default()
        };
        let p = run_protocol_sim(&cfg, 7);
        println!(
            "| chord protocol | {label} | {} | {:.2} | {} | {} |",
            p.ticks,
            p.runtime_factor,
            p.messages.total(),
            p.messages.strategy_overhead()
        );

        // Oracle ring: the paper's abstraction, on the same knobs.
        let o = Sim::new(cfg.sim_config(), 7).run();
        println!(
            "| oracle ring | {label} | {} | {:.2} | (not modeled) | {} |",
            o.ticks,
            o.runtime_factor,
            o.messages.load_queries + o.messages.invitations_sent
        );
    }
    println!(
        "\nThe two levels must tell the same story — the oracle ring is\n\
         the paper's abstraction, the protocol run pays for every lookup,\n\
         join, stabilize round, and replica push along the way."
    );
}
