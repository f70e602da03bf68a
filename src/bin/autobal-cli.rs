//! `autobal-cli` — run load-balancing simulations from the command line.
//!
//! ```text
//! autobal-cli run --nodes 1000 --tasks 100000 --strategy random \
//!                 [--churn 0.01] [--trials 10] [--seed 42] [--json]
//! autobal-cli spec experiment.json [--json]
//! autobal-cli strategies
//! ```
//!
//! A reader that closes stdout early (`| head`) ends the program with
//! exit status 141, the status a shell reports for a death by SIGPIPE.
//!
//! All user-facing text goes through the workspace's one output
//! endpoint, [`autobal_telemetry::console`].

use autobal::sim::{SimConfig, StrategyKind};
use autobal::workload::trials::{run_and_summarize, TrialStats};
use autobal::workload::ExperimentSpec;
use autobal_telemetry::console::{errln, outln};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("spec") => cmd_spec(&args[1..]),
        Some("strategies") => {
            for s in StrategyKind::ALL {
                outln(s.label());
            }
            outln("oracle   (centralized comparator, not in the paper)");
            0
        }
        _ => {
            errln(
                "usage: autobal-cli run --nodes N --tasks T --strategy S \
                 [--churn R] [--trials K] [--seed X] [--json]\n       \
                 autobal-cli spec <file.json> [--json]\n       \
                 autobal-cli strategies\n\
                 exit status 141 when stdout closes before all output is written",
            );
            2
        }
    };
    std::process::exit(code);
}

fn parse_strategy(s: &str) -> Option<StrategyKind> {
    match s {
        "none" => Some(StrategyKind::None),
        "churn" => Some(StrategyKind::Churn),
        "random" => Some(StrategyKind::RandomInjection),
        "neighbor" => Some(StrategyKind::NeighborInjection),
        "smart" => Some(StrategyKind::SmartNeighbor),
        "invitation" => Some(StrategyKind::Invitation),
        "oracle" => Some(StrategyKind::CentralizedOracle),
        _ => None,
    }
}

fn cmd_run(args: &[String]) -> i32 {
    let mut cfg = SimConfig::default();
    let mut trials = 10u64;
    let mut seed = 42u64;
    let mut json = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut next = |flag: &str| -> Result<String, String> {
            it.next().cloned().ok_or(format!("{flag} needs a value"))
        };
        let res: Result<(), String> = (|| {
            match a.as_str() {
                "--nodes" => cfg.nodes = next("--nodes")?.parse().map_err(|e| format!("{e}"))?,
                "--tasks" => cfg.tasks = next("--tasks")?.parse().map_err(|e| format!("{e}"))?,
                "--strategy" => {
                    let s = next("--strategy")?;
                    cfg.strategy = parse_strategy(&s).ok_or(format!("unknown strategy {s}"))?;
                }
                "--churn" => {
                    cfg.churn_rate = next("--churn")?.parse().map_err(|e| format!("{e}"))?
                }
                "--threshold" => {
                    cfg.sybil_threshold =
                        next("--threshold")?.parse().map_err(|e| format!("{e}"))?
                }
                "--trials" => trials = next("--trials")?.parse().map_err(|e| format!("{e}"))?,
                "--seed" => seed = next("--seed")?.parse().map_err(|e| format!("{e}"))?,
                "--json" => json = true,
                other => return Err(format!("unknown flag {other}")),
            }
            Ok(())
        })();
        if let Err(e) = res {
            errln(&format!("error: {e}"));
            return 2;
        }
    }
    if let Err(e) = cfg.validate() {
        errln(&format!("invalid config: {e}"));
        return 2;
    }
    if trials == 0 {
        errln("error: --trials must be at least 1");
        return 2;
    }
    let stats = run_and_summarize(&cfg, trials, seed);
    report(&cfg, &stats, json);
    0
}

fn cmd_spec(args: &[String]) -> i32 {
    let Some(path) = args.first() else {
        errln("spec: missing file argument");
        return 2;
    };
    let json = args.iter().any(|a| a == "--json");
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            errln(&format!("cannot read {path}: {e}"));
            return 1;
        }
    };
    let spec = match ExperimentSpec::from_json(&text) {
        Ok(s) => s,
        Err(e) => {
            errln(&format!("bad spec: {e}"));
            return 1;
        }
    };
    if let Err(e) = spec.config.validate() {
        errln(&format!("invalid config in spec: {e}"));
        return 2;
    }
    if spec.trials == 0 {
        errln("invalid spec: trials must be at least 1");
        return 2;
    }
    let stats = run_and_summarize(&spec.config, spec.trials, spec.seed);
    outln(&format!("experiment: {}", spec.name));
    report(&spec.config, &stats, json);
    0
}

fn report(cfg: &SimConfig, stats: &TrialStats, json: bool) {
    if json {
        // Hand-rolled JSON keeps TrialStats free of serde bounds.
        outln(&format!(
            "{{\"strategy\":\"{}\",\"nodes\":{},\"tasks\":{},\"trials\":{},\
             \"mean_runtime_factor\":{:.6},\"std_runtime_factor\":{:.6},\
             \"min\":{:.6},\"max\":{:.6},\"mean_ticks\":{:.2},\
             \"ideal_ticks\":{},\"incomplete\":{}}}",
            cfg.strategy.label(),
            cfg.nodes,
            cfg.tasks,
            stats.trials,
            stats.mean_runtime_factor,
            stats.std_runtime_factor,
            stats.min_runtime_factor,
            stats.max_runtime_factor,
            stats.mean_ticks,
            stats.ideal_ticks,
            stats.incomplete
        ));
    } else {
        outln(&format!(
            "{} | {} nodes, {} tasks | ideal {} ticks",
            cfg.strategy.label(),
            cfg.nodes,
            cfg.tasks,
            stats.ideal_ticks
        ));
        outln(&format!(
            "runtime factor {:.3} ± {:.3} (min {:.3}, max {:.3}) over {} trials",
            stats.mean_runtime_factor,
            stats.std_runtime_factor,
            stats.min_runtime_factor,
            stats.max_runtime_factor,
            stats.trials
        ));
        if stats.incomplete > 0 {
            outln(&format!(
                "WARNING: {} trials hit the tick cap",
                stats.incomplete
            ));
        }
    }
}
