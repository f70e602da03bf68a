//! `repro` — regenerates every table and figure of the paper.
//!
//! ```text
//! repro [--quick | --full | --trials N] [--seed S] [--out DIR]
//!       [--trace PATH] [--baseline BENCH.json] [targets…]
//!
//! targets: table1 table2 fig1 fig2_3 fig4_6 fig7_9 fig10 fig11_12
//!          fig13_14 text_ri text_ni text_inv messages extensions
//!          worktick timeseries chord_hops chord_churn
//!          maintenance_cost async_latency resilience byzantine
//!          eventtime trace metrics perf
//!                                   (default, or `all`: all but perf)
//!
//! exit status: 2 on a bad flag or an unknown target,
//!              141 when stdout closes before all output is written
//! ```
//!
//! Targets run in [`TARGETS`] order, whatever order they are named in;
//! `fig2` and `fig3` are aliases of `fig2_3`, and names ignore ASCII
//! case. The `perf` target (never part of the default set) runs the
//! pinned benchmark scenarios and writes `BENCH_10.json`; `--baseline
//! PATH` compares it against a committed baseline and fails on a >2x
//! throughput regression.
//!
//! `--quick` (default) uses 5 trials per cell; `--full` uses the paper's
//! 100. Outputs land in `results/` as CSV + Markdown + SVG. `--trace`
//! arms the flight recorder in single-run experiments and dumps JSONL
//! traces under the given base path (a trace's `Decision` records are
//! the run's event log); the `trace` target produces the full telemetry
//! artifact set (JSONL dumps, span breakdowns, divergence diff,
//! histograms). All output goes through the workspace's one output
//! endpoint, [`autobal_telemetry::console`].

mod byzantine;
mod chordx;
mod common;
mod eventcmp;
mod figures;
mod metricsx;
mod perf;
mod resilience;
mod ringview;
mod tables;
mod textual;
mod tracex;

use autobal_telemetry::{errln, outln};
use common::Args;

#[cfg(feature = "count-allocs")]
#[global_allocator]
static ALLOC: autobal_meminstr::CountingAlloc = autobal_meminstr::CountingAlloc::new();

/// One `repro` target: the id it is named by, the other names it
/// answers to, and the driver that regenerates it.
pub struct Target {
    pub id: &'static str,
    pub aliases: &'static [&'static str],
    pub run: fn(&Args),
    /// Runs only when named, never as part of `all` or the default set.
    pub opt_in: bool,
}

const fn target(id: &'static str, run: fn(&Args)) -> Target {
    Target {
        id,
        aliases: &[],
        run,
        opt_in: false,
    }
}

/// Every target, in the order a run executes them.
pub const TARGETS: &[Target] = &[
    target("table1", tables::table1),
    target("table2", tables::table2),
    target("fig1", figures::fig1),
    Target {
        aliases: &["fig2", "fig3"],
        ..target("fig2_3", figures::fig2_3)
    },
    target("fig4_6", figures::fig4_6),
    target("fig7_9", figures::fig7_9),
    target("fig10", figures::fig10),
    target("fig11_12", figures::fig11_12),
    target("fig13_14", figures::fig13_14),
    target("text_ri", textual::text_ri),
    target("text_ni", textual::text_ni),
    target("text_inv", textual::text_inv),
    target("messages", textual::messages),
    target("extensions", textual::extensions),
    target("worktick", textual::worktick),
    target("timeseries", textual::timeseries),
    target("chord_hops", chordx::chord_hops),
    target("chord_churn", chordx::chord_churn),
    target("maintenance_cost", chordx::maintenance_cost),
    target("async_latency", chordx::async_latency),
    target("resilience", resilience::resilience),
    target("byzantine", byzantine::byzantine),
    target("eventtime", eventcmp::eventtime),
    target("trace", tracex::trace),
    target("metrics", metricsx::metrics),
    // Wall-clock benchmarks are meaningless in a default "regenerate
    // everything" run and would slow it down.
    Target {
        opt_in: true,
        ..target("perf", perf::perf)
    },
];

/// The target a command-line name selects, by id or alias, ignoring
/// ASCII case.
pub fn find_target(name: &str) -> Option<&'static Target> {
    TARGETS.iter().find(|t| {
        t.id.eq_ignore_ascii_case(name) || t.aliases.iter().any(|a| a.eq_ignore_ascii_case(name))
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            errln!("error: {e}");
            errln!(
                "usage: repro [--quick|--full|--trials N] [--seed S] [--out DIR] \
                 [--trace PATH] [--baseline BENCH.json] [targets…]\n\
                 exit status 2 on a bad flag or an unknown target, \
                 141 when stdout closes before all output is written"
            );
            std::process::exit(2);
        }
    };
    outln!(
        "repro: trials={} seed={:#x} out={}",
        args.trials,
        args.seed,
        args.out.display()
    );
    // Wall-clock is the one intentionally nondeterministic output; it is
    // reported on stderr only so result artifacts stay byte-identical.
    // autobal-lint: allow(determinism, "wall-clock timing is reported on stderr only, never in results")
    let t0 = std::time::Instant::now();
    for target in TARGETS.iter().filter(|t| args.wants(t)) {
        (target.run)(&args);
    }
    errln!("done in {:?}", t0.elapsed());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_id_and_alias_selects_its_target() {
        for t in TARGETS {
            assert_eq!(find_target(t.id).map(|f| f.id), Some(t.id));
            for alias in t.aliases {
                assert_eq!(find_target(alias).map(|f| f.id), Some(t.id));
            }
        }
        assert_eq!(find_target("fig2").map(|t| t.id), Some("fig2_3"));
        assert_eq!(find_target("fig3").map(|t| t.id), Some("fig2_3"));
        assert_eq!(find_target("FIG2").map(|t| t.id), Some("fig2_3"));
        assert!(find_target("tabel1").is_none());
    }

    #[test]
    fn perf_runs_only_when_named() {
        let perf = find_target("perf").expect("perf target");
        for argv in [&[][..], &["all"]] {
            let argv: Vec<String> = argv.iter().map(|a| a.to_string()).collect();
            let args = Args::parse(&argv).unwrap();
            assert!(!args.wants(perf));
            assert!(TARGETS
                .iter()
                .filter(|t| t.id != "perf")
                .all(|t| args.wants(t)));
        }
        let args = Args::parse(&["perf".to_string()]).unwrap();
        assert!(args.wants(perf));
        assert!(!args.wants(&TARGETS[0]));
    }
}
